"""Ternary linear recurrences and the representation U_n = u^2 + n*v^2."""

from .charpoly import (PolyAnalysis, check_conditions, discriminant, factorize,
                       gamma, is_degenerate, solve_exponents)
from .modular import (PrimeProfile, classify_prime, classify_primes,
                      count_roots_mod_p, in_P_fU, in_Z, term_mod, z_primes)
from .recurrence import (FIBONACCI, FIVE_FIB_SQ_MINUS_4, POW2_PLUS_FIB,
                         POW2_PLUS_N, PRESETS, SQUARE_POW, TRIBONACCI,
                         RecurrenceSpec, fibonacci, lucas,
                         resolve_preset, term, term_iter)
from .representation import (CountReport, Member, MembershipRecord, NonMember,
                             Obstructed, Unknown, count_range, integer_sqrt,
                             membership, qr_obstruction, represent)

__version__ = "0.1.0"
