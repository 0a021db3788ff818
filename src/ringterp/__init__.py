"""Intuitionistic arithmetic over an ordered ring, mechanized.

The package has three layers.  `syntax`, `sexpr` and `translate` deal
with formulas: a two-sorted source language of naturals and species, a
one-sorted target language of ordered-ring formulas, and the formula
translation between them.  `reals`, `kripke` and `encoder` deal with
semantic material: dyadic rational approximations of reals with
explicit convergence moduli, a simulator for proof-event choice
sequences, and the encoding of finished runs as quotient pairs.
`evaluate` ties both together by interpreting formulas over finite
structures, and `cli` exposes the whole pipeline as a command line
tool.
"""

__version__ = "0.1.0"

from .encoder import (
    MembershipStatus, SpeciesEncoding, adaptive_precision, encode_run,
    encode_silent, encode_stabilized, membership_profile, quotient_status,
)
from .evaluate import (
    EvalError, FiniteStructure, PrecisionError, StructureError, eval_formula,
    format_structure, parse_structure,
)
from .kripke import (
    ChoiceSeq, ConjunctReport, ConjunctStatus, Draw, RunResult, Schedule,
    ScheduleKind, TraceError, check_conjuncts, format_trace, parse_alpha_spec,
    parse_schedule_spec, parse_trace, run_total, simulate,
)
from .pairing import pair, unpair
from .reals import (
    InsufficientHorizon, Precision, RealGen, add, apart_at, check_modulus,
    eq_at, from_nat, from_unit_fraction, lt_at, mul, nat_scalar,
)
from .sexpr import ParseError, format_formula, format_term, parse_formula, parse_term
from .syntax import (
    Add, And, Apart, Bottom, DefinedQuant, Eq, Exists, Forall, Formula,
    Implies, In, Language, Lt, Mul, NatConst, Or, Pair, QuantKind, RealConst,
    Sort, SortError, SpeciesConst, SpeciesEq, SpeciesVar, Succ, Term, Var,
    alpha_equal, free_vars, is_closed, neg, normalize_apart, substitute,
)
from .translate import (
    Expansion, Orientation, TranslationConfig, TranslationError,
    expand_defined, nat_core_formula, nat_predicate, sentinel_formula,
    translate,
)

__all__ = [
    "Add", "And", "Apart", "Bottom", "ChoiceSeq", "ConjunctReport",
    "ConjunctStatus", "DefinedQuant", "Draw", "Eq", "EvalError", "Exists",
    "Expansion", "FiniteStructure", "Forall", "Formula", "Implies", "In",
    "InsufficientHorizon", "Language", "Lt", "MembershipStatus", "Mul",
    "NatConst", "Or", "Orientation", "Pair", "ParseError", "Precision",
    "PrecisionError", "QuantKind", "RealConst", "RealGen", "RunResult",
    "Schedule", "ScheduleKind", "Sort", "SortError", "SpeciesConst",
    "SpeciesEncoding", "SpeciesEq", "SpeciesVar", "StructureError", "Succ",
    "Term", "TraceError", "TranslationConfig", "TranslationError", "Var",
    "add", "adaptive_precision", "alpha_equal", "apart_at",
    "check_conjuncts", "check_modulus", "encode_run", "encode_silent",
    "encode_stabilized", "eq_at", "eval_formula", "expand_defined",
    "format_formula", "format_structure", "format_term", "format_trace",
    "free_vars", "from_nat", "from_unit_fraction", "is_closed", "lt_at",
    "membership_profile", "mul", "nat_core_formula", "nat_predicate",
    "nat_scalar", "neg", "normalize_apart", "pair", "parse_alpha_spec",
    "parse_formula", "parse_schedule_spec", "parse_structure", "parse_term",
    "parse_trace", "quotient_status", "run_total", "sentinel_formula",
    "simulate", "substitute", "translate", "unpair",
]
