"""quadguess: guess quadratic differential equations and the equivalent
quadratic recurrences from a finite prefix of an exact rational sequence,
and extend sequences from such equations."""

from quadguess.equations import (QuadEquation, QuadMonomial,
                                 equation_from_json, equation_from_obj,
                                 equation_to_json, equation_to_obj,
                                 monomial_of_orders, render_latex,
                                 render_text)
from quadguess.errors import (DegenerateInputError, EquationFormatError,
                              InconsistentInitialTermsError,
                              InsufficientTermsError,
                              LeadingCoefficientZeroError, NonlinearStepError,
                              PrefixFormatError, QuadGuessError)
from quadguess.exact import format_rational, parse_rational
from quadguess.guessing import GuessConfig, GuessResult, guess
from quadguess.prefix import (SequencePrefix, dump_prefix, load_prefix,
                              parse_prefix_text)
from quadguess.sequences import (ORACLES, CheckReport, check, extend,
                                 oracle_sequence)

__version__ = "0.1.0"
