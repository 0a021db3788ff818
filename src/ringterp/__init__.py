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

The public names below are imported from their modules on first use
(PEP 562), so that importing the package, or one command line call,
loads only the modules it reads.
"""

import importlib

# Loading the translate module binds the name here to the module; the
# function, imported now, is bound after it, and nothing rebinds it later.
from .translate import translate

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "encoder": "MembershipStatus SpeciesEncoding adaptive_precision "
               "encode_run encode_silent encode_stabilized membership_profile "
               "quotient_status",
    "evaluate": "EvalError FiniteStructure PrecisionError StructureError "
                "eval_formula format_structure parse_structure",
    "kripke": "ChoiceSeq ConjunctReport ConjunctStatus Draw RunResult "
              "Schedule ScheduleKind TraceError check_conjuncts format_trace "
              "parse_alpha_spec parse_schedule_spec parse_trace run_total "
              "simulate",
    "pairing": "pair unpair",
    "reals": "InsufficientHorizon Precision RealGen add apart_at "
             "check_modulus eq_at from_nat from_unit_fraction lt_at mul "
             "nat_scalar",
    "sexpr": "ParseError format_formula format_term parse_formula parse_term",
    "syntax": "Add And Apart Bottom DefinedQuant Eq Exists Forall Formula "
              "Implies In Language Lt Mul NatConst Or Pair QuantKind "
              "RealConst Sort SortError SpeciesConst SpeciesEq SpeciesVar "
              "Succ Term Var alpha_equal free_vars is_closed neg "
              "normalize_apart substitute",
    "translate": "Expansion Orientation TranslationConfig TranslationError "
                 "expand_defined nat_core_formula nat_predicate "
                 "sentinel_formula translate",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
