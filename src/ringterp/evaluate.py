"""Finite-domain classical evaluator for source and target formulas.

A FiniteStructure fixes a finite set of naturals, the corresponding
ring generators, and encodings for the species constants; eval_formula
then decides closed formulas of either language classically over those
domains.  The evaluator is the brute-force oracle behind the
translation's collapse property (with the sentinel forced false, a
translated formula evaluates exactly like its source) and absorption
property (with the sentinel forced true, every translated formula
evaluates true).

Comparisons of reals are bounded witness searches, so the evaluator
refuses to guess: an equality atom whose sides are neither witnessed
equal nor witnessed apart raises PrecisionError instead of defaulting.
A strict-order atom without a witness evaluates false, which is the
documented reading of lt_at.

Species quantifiers of the source language range over the family of
species definable from the structure's generator pairs: for each
ordered pair (a, b) of domain generators, the set of candidates n with
n * a = b witnessed (orientation determining which side is scaled),
deduplicated.  The target side of a translated species quantifier runs
over exactly the same ordered pairs, so the two sides see the same
family by construction.  The family is decided for candidates up to
max(nat_domain); asking a family species about a larger candidate
raises PrecisionError.  Species constants, by contrast, have exact
extensions (a singleton, or the full species for a silent encoding)
and answer for every candidate.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterable, Mapping, Optional, Union

from .encoder import MembershipStatus, SpeciesEncoding, encode_silent, \
    encode_stabilized, gap_digits, quotient_status
from .reals import InsufficientHorizon, Precision, RealGen, add, \
    check_modulus, eq_at, from_nat, lt_at, mul, nat_scalar
from .syntax import (
    Add, And, Apart, Bottom, DefinedQuant, Eq, Exists, Forall, Formula,
    Implies, In, Language, Lt, Mul, NatConst, Or, Pair, QuantKind, RealConst,
    Sort, SpeciesConst, SpeciesEq, SpeciesRef, SpeciesVar, Succ, Term, Var,
    check_formula, species_binder_index, term_var_names,
)
from .translate import ORIENTATION_NAMES, Orientation


class EvalError(ValueError):
    """The formula cannot be evaluated over the given structure."""


class PrecisionError(Exception):
    """A bounded comparison could not be decided at the configured
    precision; the evaluator aborts rather than defaulting."""


class StructureError(ValueError):
    """A structure description is malformed or internally inconsistent."""


class FiniteStructure:
    """Finite classical model shared by the source and target languages.

    nat_domain is the range of the source natural quantifiers and of
    the target defined quantifiers; real_domain (the generators f_n for
    the domain naturals plus the coding pair of every species constant)
    is the range of plain real quantifiers.  species maps constant
    indices to encodings; their exact extensions are derived from the
    encodings and verified against bounded membership checks during
    construction, as is the modulus promise of every domain generator.
    The precision's k is raised to the gap_digits of every species
    constant, so that a candidate next to a singleton's member is not
    witnessed equal to it; the horizon is kept as given.
    sentinel_true fixes how target atoms mentioning the sentinel
    variable are forced.
    """

    def __init__(self, nat_domain: Iterable[int],
                 species: Optional[Mapping[int, SpeciesEncoding]] = None,
                 orientation: Orientation = Orientation.AS_WRITTEN,
                 precision: Optional[Precision] = None,
                 sentinel: str = "y",
                 sentinel_true: bool = False) -> None:
        domain = tuple(sorted(set(nat_domain)))
        if not domain:
            raise StructureError("nat domain must be nonempty")
        if any(not isinstance(n, int) or n < 0 for n in domain):
            raise StructureError("nat domain elements must be naturals")
        self.nat_domain = domain
        self.species = dict(sorted((species or {}).items()))
        if any(i < 0 for i in self.species):
            raise StructureError("species indices must be nonnegative")
        self.orientation = orientation
        self.sentinel = sentinel
        self.sentinel_true = sentinel_true
        self.family_bound = max(domain)

        self._nat_gens: dict[int, RealGen] = {n: from_nat(n) for n in domain}
        self.const_gens: dict[str, RealGen] = {}
        reals: list[RealGen] = [self._nat_gens[n] for n in domain]
        for i, enc in self.species.items():
            if not isinstance(enc, SpeciesEncoding):
                raise StructureError(f"species {i} is not an encoding")
            if orientation is Orientation.AS_WRITTEN:
                self.const_gens[f"a{i}"] = enc.v
                self.const_gens[f"b{i}"] = enc.u
            else:
                self.const_gens[f"a{i}"] = enc.u
                self.const_gens[f"b{i}"] = enc.v
            reals.extend([enc.u, enc.v])
        self.real_domain = tuple(reals)
        precision = precision if precision is not None else Precision()
        k = max([precision.k] + [gap_digits(e) for e in self.species.values()])
        self.precision = replace(precision, k=k)

        self._memo: dict[tuple, tuple] = {}
        self._family: Optional[tuple[frozenset[int], ...]] = None
        self._verify()

    # -- construction checks ------------------------------------------------

    def _verify(self) -> None:
        seen: set[int] = set()
        for g in self.real_domain:
            if id(g) in seen:
                continue
            seen.add(id(g))
            try:
                ok = check_modulus(g, self.precision)
            except InsufficientHorizon as exc:
                raise PrecisionError(
                    f"structure precision cannot host a generator: {exc}"
                ) from exc
            if not ok:
                raise StructureError(
                    f"generator {g.name or '?'} violates its modulus promise"
                )
        for i, enc in self.species.items():
            for n in range(self.family_bound + 1):
                status = quotient_status(enc, n, self.precision)
                member = enc.stabilized is None or n == enc.stabilized[1]
                if status is MembershipStatus.UNDETERMINED:
                    raise PrecisionError(
                        f"membership of {n} in species {i} is undetermined "
                        f"at k={self.precision.k}, "
                        f"horizon={self.precision.horizon}"
                    )
                if (status is MembershipStatus.CONFIRMED) != member:
                    raise StructureError(
                        f"species {i} encoding disagrees with its extension "
                        f"at candidate {n}"
                    )

    # -- derived data -------------------------------------------------------

    def const_extension(self, index: int) -> Optional[frozenset[int]]:
        """Exact extension of a species constant: a singleton frozenset,
        or None meaning the full species."""
        enc = self.species.get(index)
        if enc is None:
            raise EvalError(f"structure does not assign species constant {index}")
        if enc.stabilized is None:
            return None
        return frozenset({enc.stabilized[1]})

    def nat_gen(self, value: int) -> RealGen:
        got = self._nat_gens.get(value)
        if got is None:
            got = from_nat(value)
            self._nat_gens[value] = got
        return got

    def memo(self, op: Callable, a: Union[int, RealGen], b: RealGen,
             *extra: object) -> object:
        """op(a, b, *extra), computed once per operation and operands.

        Generators are keyed by object identity: every generator reaching
        here is either a domain generator or the memoized result of an
        operation, so identities are stable for the structure's lifetime
        (each entry keeps its operands alive).  A natural scalar is keyed
        by value; extra (the precision) is fixed per structure.
        """
        key = (op, a if isinstance(a, int) else id(a), id(b))
        hit = self._memo.get(key)
        if hit is None:
            hit = (a, b, op(a, b, *extra))
            self._memo[key] = hit
        return hit[2]

    def eq_witness(self, a: RealGen, b: RealGen) -> bool:
        """eq_at at the structure's precision, memoized per generator pair."""
        return self.memo(eq_at, a, b, self.precision)

    def lt_witness(self, a: RealGen, b: RealGen) -> bool:
        """lt_at at the structure's precision, memoized per generator pair."""
        return self.memo(lt_at, a, b, self.precision)

    def relation_holds(self, n: int, scaled: RealGen, other: RealGen) -> bool:
        """Decide n * scaled = other by bounded witness, aborting when
        neither equality nor apartness is witnessed."""
        left = self.memo(nat_scalar, n, scaled)
        if self.eq_witness(left, other):
            return True
        if self.lt_witness(left, other) or self.lt_witness(other, left):
            return False
        raise PrecisionError(
            f"relation {n} * {scaled.name or '?'} = {other.name or '?'} "
            f"undetermined at k={self.precision.k}, "
            f"horizon={self.precision.horizon}"
        )

    @property
    def species_family(self) -> tuple[frozenset[int], ...]:
        """Species definable from ordered pairs of domain generators,
        as extensions over 0..family_bound, deduplicated in first-seen
        order."""
        if self._family is None:
            as_written = self.orientation is Orientation.AS_WRITTEN
            sets: list[frozenset[int]] = []
            seen: set[frozenset[int]] = set()
            for ga in self.real_domain:
                for gb in self.real_domain:
                    scaled, other = (ga, gb) if as_written else (gb, ga)
                    members = frozenset(
                        n for n in range(self.family_bound + 1)
                        if self.relation_holds(n, scaled, other)
                    )
                    if members not in seen:
                        seen.add(members)
                        sets.append(members)
            self._family = tuple(sets)
        return self._family


# ---------------------------------------------------------------------------
# Evaluation


def eval_formula(f: Formula, structure: FiniteStructure, language: Language,
                 env: Optional[Mapping[str, object]] = None) -> bool:
    """Classical truth value of f over the structure's finite domains.

    env may pre-bind term variables (to naturals for the source
    language, to generators for the target language); species variables
    must be bound by quantifiers.  Raises EvalError for unbound names,
    PrecisionError when a bounded comparison cannot be decided.
    """
    check_formula(f, language)
    if language is Language.SOURCE:
        return _eval_source(f, structure, dict(env or {}), {})
    return _eval_target(f, structure, dict(env or {}))


def _source_term(t: Term, env: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        if t.name not in env:
            raise EvalError(f"unbound variable {t.name!r}")
        return env[t.name]
    if isinstance(t, NatConst):
        return t.value
    if isinstance(t, Succ):
        return _source_term(t.arg, env) + 1
    if isinstance(t, Add):
        return _source_term(t.left, env) + _source_term(t.right, env)
    if isinstance(t, Mul):
        return _source_term(t.left, env) * _source_term(t.right, env)
    if isinstance(t, Pair):
        from .pairing import pair
        return pair(_source_term(t.left, env), _source_term(t.right, env))
    raise EvalError(f"not a source term: {t!r}")


def _eval_source(f: Formula, s: FiniteStructure, env: dict,
                 senv: dict[int, frozenset[int]]) -> bool:
    if isinstance(f, Bottom):
        return False
    if isinstance(f, Eq):
        return _source_term(f.left, env) == _source_term(f.right, env)
    if isinstance(f, Lt):
        return _source_term(f.left, env) < _source_term(f.right, env)
    if isinstance(f, Apart):
        return _source_term(f.left, env) != _source_term(f.right, env)
    if isinstance(f, In):
        value = _source_term(f.element, env)
        if isinstance(f.species, SpeciesConst):
            extension = s.const_extension(f.species.index)
            return extension is None or value in extension
        index = f.species.index
        if index not in senv:
            raise EvalError(f"unbound species variable X{index}")
        if value > s.family_bound:
            raise PrecisionError(
                f"membership of {value} exceeds the decided family range "
                f"0..{s.family_bound}"
            )
        return value in senv[index]
    if isinstance(f, SpeciesEq):
        return (_restricted_extension(f.left, s, senv)
                == _restricted_extension(f.right, s, senv))
    if isinstance(f, And):
        return (_eval_source(f.left, s, env, senv)
                and _eval_source(f.right, s, env, senv))
    if isinstance(f, Or):
        return (_eval_source(f.left, s, env, senv)
                or _eval_source(f.right, s, env, senv))
    if isinstance(f, Implies):
        return ((not _eval_source(f.left, s, env, senv))
                or _eval_source(f.right, s, env, senv))
    if isinstance(f, (Exists, Forall)):
        combine = any if isinstance(f, Exists) else all
        if f.sort is Sort.NAT:
            return combine(
                _eval_source(f.body, s, {**env, f.var: n}, senv)
                for n in s.nat_domain
            )
        index = species_binder_index(f.var)
        return combine(
            _eval_source(f.body, s, env, {**senv, index: members})
            for members in s.species_family
        )
    raise EvalError(f"cannot evaluate {f!r}")


def _restricted_extension(ref: SpeciesRef, s: FiniteStructure,
                          senv: Mapping[int, frozenset[int]]) -> frozenset[int]:
    """Extension of a species reference cut down to the nat domain.

    Species equality mirrors its translated form, a pointwise
    biconditional quantified over the nat domain, so only that part of
    the extensions may matter.
    """
    domain = frozenset(s.nat_domain)
    if isinstance(ref, SpeciesConst):
        extension = s.const_extension(ref.index)
        return domain if extension is None else extension & domain
    if ref.index not in senv:
        raise EvalError(f"unbound species variable X{ref.index}")
    return senv[ref.index] & domain


def _target_term(t: Term, s: FiniteStructure,
                 env: Mapping[str, RealGen]) -> RealGen:
    if isinstance(t, Var):
        if t.name not in env:
            raise EvalError(f"unbound variable {t.name!r}")
        return env[t.name]
    if isinstance(t, NatConst):
        return s.nat_gen(t.value)
    if isinstance(t, RealConst):
        if t.name not in s.const_gens:
            raise EvalError(f"structure does not define constant {t.name!r}")
        return s.const_gens[t.name]
    if isinstance(t, Add):
        return s.memo(add, _target_term(t.left, s, env),
                      _target_term(t.right, s, env))
    if isinstance(t, Mul):
        return s.memo(mul, _target_term(t.left, s, env),
                      _target_term(t.right, s, env))
    raise EvalError(f"not a target term: {t!r}")


def _mentions_sentinel(f: Formula, s: FiniteStructure,
                       env: Mapping[str, RealGen]) -> bool:
    if s.sentinel in env:
        return False
    names = term_var_names(f.left) | term_var_names(f.right)
    return s.sentinel in names


def _eval_target(f: Formula, s: FiniteStructure,
                 env: dict[str, RealGen]) -> bool:
    if isinstance(f, Bottom):
        return False
    if isinstance(f, (Eq, Lt, Apart)):
        if _mentions_sentinel(f, s, env):
            return s.sentinel_true
        a = _target_term(f.left, s, env)
        b = _target_term(f.right, s, env)
        if isinstance(f, Eq):
            if s.eq_witness(a, b):
                return True
            if s.lt_witness(a, b) or s.lt_witness(b, a):
                return False
            raise PrecisionError(
                f"equality of {a.name or '?'} and {b.name or '?'} "
                f"undetermined at k={s.precision.k}, "
                f"horizon={s.precision.horizon}"
            )
        if isinstance(f, Lt):
            return s.lt_witness(a, b)
        return s.lt_witness(a, b) or s.lt_witness(b, a)
    if isinstance(f, And):
        return _eval_target(f.left, s, env) and _eval_target(f.right, s, env)
    if isinstance(f, Or):
        return _eval_target(f.left, s, env) or _eval_target(f.right, s, env)
    if isinstance(f, Implies):
        return (not _eval_target(f.left, s, env)) or _eval_target(f.right, s, env)
    if isinstance(f, (Exists, Forall)):
        combine = any if isinstance(f, Exists) else all
        return combine(
            _eval_target(f.body, s, {**env, f.var: g})
            for g in s.real_domain
        )
    if isinstance(f, DefinedQuant):
        combine = (any if f.kind in (QuantKind.EXISTS_NAT, QuantKind.EXISTS_REAL)
                   else all)
        if f.kind in (QuantKind.EXISTS_NAT, QuantKind.FORALL_NAT):
            values: Iterable[RealGen] = (s.nat_gen(n) for n in s.nat_domain)
        else:
            values = s.real_domain
        return combine(
            _eval_target(f.body, s, {**env, f.var: g}) for g in values
        )
    raise EvalError(f"cannot evaluate {f!r}")


# ---------------------------------------------------------------------------
# Structure text format


STRUCTURE_HEADER = "# ringterp structure v1"


def format_structure(s: FiniteStructure) -> str:
    lines = [STRUCTURE_HEADER]
    lines.append("nats: " + " ".join(str(n) for n in s.nat_domain))
    for i, enc in s.species.items():
        if enc.stabilized is None:
            lines.append(f"species: {i} full")
        else:
            moment, value = enc.stabilized
            lines.append(f"species: {i} singleton {value} moment {moment}")
    lines.append(f"orientation: {s.orientation.value}")
    lines.append(f"precision: k={s.precision.k} horizon={s.precision.horizon}")
    lines.append(f"sentinel: {s.sentinel}")
    return "\n".join(lines) + "\n"


def parse_structure(text: str, sentinel_true: bool = False) -> FiniteStructure:
    """Build (and verify) a structure from its text description.

    Lines are `key: value`; blank lines and # comments are ignored.
    Required: `nats: n n ...`.  Optional: `species: <i> full` or
    `species: <i> singleton <k> moment <m>` (repeatable),
    `orientation: as-written|quotient-normalized`,
    `precision: k=<k> horizon=<h>`, and `sentinel: <name>`.
    """
    nats: Optional[list[int]] = None
    species: dict[int, SpeciesEncoding] = {}
    orientation = Orientation.AS_WRITTEN
    precision = Precision()
    sentinel = "y"
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not sep:
            raise StructureError(f"expected key: value, got {line!r}")
        try:
            if key == "nats":
                nats = [int(part) for part in value.split()]
            elif key == "species":
                parts = value.split()
                index = int(parts[0])
                if index in species:
                    raise StructureError(f"species {index} listed twice")
                if parts[1:] == ["full"]:
                    species[index] = encode_silent()
                elif (len(parts) == 5 and parts[1] == "singleton"
                      and parts[3] == "moment"):
                    species[index] = encode_stabilized(int(parts[4]),
                                                       int(parts[2]))
                else:
                    raise StructureError(f"bad species line {line!r}")
            elif key == "orientation":
                if value not in ORIENTATION_NAMES:
                    raise StructureError(f"unknown orientation {value!r}")
                orientation = ORIENTATION_NAMES[value]
            elif key == "precision":
                fields = dict(part.split("=", 1) for part in value.split())
                precision = Precision(k=int(fields.pop("k")),
                                      horizon=int(fields.pop("horizon")))
                if fields:
                    raise StructureError(
                        f"unknown precision fields {sorted(fields)}"
                    )
            elif key == "sentinel":
                sentinel = value
            else:
                raise StructureError(f"unknown structure key {key!r}")
        except (ValueError, IndexError, KeyError) as exc:
            if isinstance(exc, StructureError):
                raise
            raise StructureError(f"bad structure line {line!r}: {exc}") from None
    if nats is None:
        raise StructureError("structure needs a nats: line")
    return FiniteStructure(nats, species, orientation, precision,
                           sentinel, sentinel_true)
