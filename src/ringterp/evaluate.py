"""Finite-domain classical evaluator for source and target formulas.

A FiniteStructure fixes a finite set of naturals, the corresponding
ring generators, and encodings for the species constants; eval_formula
then decides closed formulas of either language classically over those
domains.  The evaluator is the brute-force oracle behind the
translation's collapse property (with the sentinel forced false, a
translated formula evaluates exactly like its source) and absorption
property (with the sentinel forced true, every translated formula
evaluates true).

Comparisons of reals are bounded witness searches, decided from the
generators' exact records where those prove it (reals.order_at), so
the evaluator refuses to guess: an equality atom neither witnessed
equal nor apart, or any atom witnessed against the exact values,
raises PrecisionError.  A strict-order atom without a witness evaluates
false, the documented reading of lt_at.

Species quantifiers of the source language range over the family of
species definable from the structure's generator pairs: for each ordered
pair (a, b) of domain generators, the set of candidates n with n * a = b
witnessed (orientation determining which side is scaled, and most
verdicts read from exact values), deduplicated.  The target side
of a translated species quantifier runs over exactly the same ordered
pairs, so the two sides see the same family by construction.  The family
is decided for candidates up to max(nat_domain); asking a family species
about a larger candidate raises PrecisionError.  Species constants, by
contrast, have exact extensions (a singleton, or the full species for a
silent encoding) and answer for every candidate.
"""

from __future__ import annotations

from itertools import chain
from math import inf
from typing import Callable, Iterable, Mapping, NoReturn, Optional

from .encoder import SpeciesEncoding, encode_silent, encode_stabilized, \
    gap_digits, membership_at
from .pairing import bounded_op, parse_natural
from .reals import AGAINST, UNDETERMINED, InsufficientHorizon, Precision, \
    RealGen, add, check_certified, exact_sign, from_nat, mul, order_at, \
    relation_at, undecided_run
from .syntax import (
    Add, And, Apart, Bottom, DefinedQuant, Eq, Exists, Forall, Formula,
    Implies, In, Language, Lt, Mul, NatConst, Or, Pair, QuantKind, RealConst,
    SENTINEL_FORMULA, Sort, SpeciesConst, SpeciesEq, SpeciesRef, SpeciesVar,
    Succ, Term, Var, check_formula, species_binder_index, term_sort,
)
from .translate import ORIENTATION_NAMES, SENTINEL, Orientation, pair_for_const


class EvalError(ValueError):
    """The formula cannot be evaluated over the given structure."""


class PrecisionError(Exception):
    """A bounded comparison could not be decided at the configured
    precision; the evaluator aborts rather than defaulting."""


class StructureError(ValueError):
    """A structure description is malformed or internally inconsistent."""


def _witnessed_order(a: RealGen, b: RealGen, prec: Precision) -> Optional[int]:
    """order_at, raising PrecisionError on a scanned verdict against the
    exact values."""
    verdict = order_at(a, b, prec)
    if verdict is not None and exact_sign(a._exact, b._exact) != verdict:
        raise PrecisionError(
            f"comparison of {a.name or '?'} and {b.name or '?'} {AGAINST} "
            f"at {prec}")
    return verdict


class FiniteStructure:
    """Finite classical model shared by the source and target languages.

    nat_domain (ints, not bools) is the range of the source natural
    quantifiers and of the target defined quantifiers; real_domain
    (nat_gens, the generators f_n for the domain naturals, plus the
    coding pair of every species constant) is the range of real
    quantifiers.  species maps constant indices (ints) to encodings;
    their exact extensions are derived from the encodings and verified
    against encoder.membership_at during construction, as is the modulus
    promise of every domain generator: by the slack floor of its exact
    record where that proves it, else by check_modulus's scan (see
    reals.check_certified).  A membership fault is the precision's
    (PrecisionError), a verdict against the extension the encoding's
    (StructureError).
    The precision's k is raised to the gap_digits of every species
    constant, so that a candidate next to a singleton's member is not
    witnessed equal to it; the horizon is kept as given.
    sentinel_true (keyword-only) fixes how target atoms mentioning the
    unbound sentinel variable translate.SENTINEL are forced.
    """

    def __init__(self, nat_domain: Iterable[int],
                 species: Optional[Mapping[int, SpeciesEncoding]] = None,
                 orientation: Orientation = Orientation.AS_WRITTEN,
                 precision: Optional[Precision] = None, *,
                 sentinel_true: bool = False) -> None:
        domain, species = tuple(nat_domain), dict(species or {})
        if any(type(n) is not int or n < 0 for n in domain):
            raise StructureError("nat domain elements must be naturals")
        if any(type(i) is not int or i < 0 for i in species):
            raise StructureError("species indices must be naturals")
        domain = tuple(sorted(set(domain)))
        if not domain:
            raise StructureError("nat domain must be nonempty")
        self.nat_domain = domain
        self.species = dict(sorted(species.items()))
        self.orientation = orientation
        self.sentinel_true = sentinel_true
        self.family_bound = max(domain)

        self._nat_gens: dict[int, RealGen] = {n: from_nat(n) for n in domain}
        self.const_gens: dict[str, RealGen] = {}
        reals: list[RealGen] = [self._nat_gens[n] for n in domain]
        for i, enc in self.species.items():
            if not isinstance(enc, SpeciesEncoding):
                raise StructureError(f"species {i} is not an encoding")
            # The translated atom n * scaled = other reads n * v = u.
            scaled, other = orientation.orient(*pair_for_const(i))
            self.const_gens[scaled], self.const_gens[other] = enc.v, enc.u
            reals.extend([enc.u, enc.v])
        self.real_domain = tuple(reals)
        self.nat_gens = self.real_domain[:len(domain)]
        precision = precision if precision is not None else Precision()
        k = max([precision.k] + [gap_digits(e) for e in self.species.values()])
        self.precision = Precision(k, precision.horizon)

        self._cache: dict[tuple, object] = {}
        self._family: Optional[tuple[frozenset[int], ...]] = None
        self._verify()

    # -- construction checks ------------------------------------------------

    def _verify(self) -> None:
        for g in dict.fromkeys(self.real_domain):
            try:
                ok = check_certified(g, self.precision)
            except InsufficientHorizon as exc:
                raise PrecisionError(
                    f"structure precision cannot host a generator: {exc}"
                ) from exc
            if not ok:
                raise StructureError(
                    f"generator {g.name or '?'} violates its modulus promise"
                )
        # Outside the undecided run membership_at gives the exact verdict,
        # true at n * v = u alone.  So the first candidate where it differs
        # from the extension is in the run, at the declared member or, for
        # the full species, at 0 or 1; 0 also leads where a horizon below
        # the declared moment leaves every candidate undetermined.  Below 8
        # candidates, asking about each costs less than finding the run.
        top, prec = self.family_bound, self.precision
        for i, enc in self.species.items():
            full = enc.stabilized is None
            probe = 1 if full else enc.stabilized[1]
            candidates = range(top + 1)
            if top >= 7:
                run = undecided_run(enc.v, enc.u, top, prec)
                probes = [n for n in sorted({0, probe})
                          if n <= top and n not in run]
                below = [n for n in probes if n < run.start]
                candidates = chain(below, run, probes[len(below):])
            for n in candidates:
                verdict = membership_at(enc, n, prec)
                if verdict is (full or n == probe):
                    continue
                if isinstance(verdict, bool):
                    raise StructureError(
                        f"species {i} encoding disagrees with its extension "
                        f"at candidate {n}"
                    )
                raise PrecisionError(
                    f"membership of {n} in species {i} is {verdict} "
                    f"at {prec}")

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

    def memo(self, op: Callable, a: RealGen, b: RealGen,
             *extra: object) -> object:
        """op(a, b, *extra), computed once per operation and operands.

        The key is (op, a, b) itself.  RealGen defines no equality, so a
        generator hashes by identity, and the key keeps it alive for the
        structure's lifetime.  extra (the precision) is fixed per
        structure.
        """
        key = (op, a, b)
        try:
            return self._cache[key]
        except KeyError:  # op runs below, so its errors chain no KeyError
            pass
        got = self._cache[key] = op(a, b, *extra)
        return got

    def relation_holds(self, n: int, scaled: RealGen, other: RealGen) -> bool:
        """reals.relation_at on n * scaled = other, raising its fault as
        a PrecisionError."""
        verdict = relation_at(n, scaled, other, self.precision)
        if isinstance(verdict, bool):
            return verdict
        raise PrecisionError(
            f"relation {n} * {scaled.name or '?'} = {other.name or '?'} "
            f"{verdict} at {self.precision}")

    @property
    def species_family(self) -> tuple[frozenset[int], ...]:
        """Species definable from ordered pairs of domain generators,
        as extensions over 0..family_bound, deduplicated in first-seen
        order, each candidate the records leave (reals.undecided_run)
        decided by relation_holds."""
        if self._family is None:
            top, prec = self.family_bound, self.precision
            pairs = (self.orientation.orient(a, b) for a in self.real_domain
                     for b in self.real_domain)
            self._family = tuple(dict.fromkeys(
                frozenset(n for n in undecided_run(scaled, other, top, prec)
                          if self.relation_holds(n, scaled, other))
                for scaled, other in pairs))
        return self._family


# ---------------------------------------------------------------------------
# Evaluation


def eval_formula(f: Formula, structure: FiniteStructure,
                 language: Language | str,
                 env: Optional[Mapping[str, object]] = None) -> bool:
    """Classical truth value of f over the structure's finite domains.

    env may pre-bind term variables (to naturals for the source
    language, to generators for the target language); species variables
    must be bound by quantifiers.  Raises SortError, before evaluating
    anything, unless f is well sorted; EvalError for unbound names and
    for source terms whose value would exceed MAX_TERM_BITS bits;
    PrecisionError when a bounded comparison cannot be decided.
    """
    language = Language(language)
    env = dict(env or {})
    compiler = _Compiler(structure, list(env.values()))
    scope = {name: slot for slot, name in enumerate(env)}
    if language is Language.SOURCE:
        return compiler.source(f, scope, {})()
    return compiler.target(f, scope)()


Thunk = Callable[[], object]


def _failing(message: str) -> Thunk:
    """A closure that raises EvalError(message)."""
    def fail():
        raise EvalError(message)
    return fail


def _constant(value: object) -> Thunk:
    return lambda: value


def _false() -> bool:
    return False


def _connective(f: Formula, child: Callable[[Formula], Thunk]) -> Thunk:
    left = child(f.left)
    if type(f) is Implies and type(f.right) is Bottom:
        return lambda: not left()
    right = child(f.right)
    if type(f) is And:
        return lambda: left() and right()
    if type(f) is Or:
        return lambda: left() or right()
    return lambda: (not left()) or right()


def _ill_sorted(f: Formula, language: Language) -> NoReturn:
    """Raise the first SortError check_formula finds in f, a formula the
    compiler cannot take in language."""
    check_formula(f, language)
    raise EvalError(f"cannot evaluate {f!r}")


def _ill_sorted_term(t: Term, language: Language) -> NoReturn:
    """Raise the first SortError term_sort finds in t."""
    term_sort(t, language)
    raise EvalError(f"not a {language.value} term: {t!r}")


class _Compiler:
    """Compiles a formula, once per evaluation, into nested closures.

    The compile pass makes the checks of check_formula in its pre-order,
    so an ill-sorted formula raises SortError before anything is
    evaluated.  Every variable in scope is known here, so each gets a
    slot of the list `slots`, the pre-bound env first and then one per
    binder: a quantifier instance stores into its slot and a variable
    loads from it, which `read` records.  What needs no instance is
    decided here once, keeping every verdict, error and order of errors:
    constants and their generators; the sentinel forcing of target atoms
    and, while y is unbound, of the shared node SENTINEL_FORMULA, so
    that (or A φ) and (imp (not A) φ) run A alone and (imp X φ) runs
    (not X); a negation (imp X (bot)), which runs not X; and a binder
    whose body never reads its slot, which runs the body once.
    Unbound names and unassigned constants become closures that raise
    when, and only when, they are reached.
    """

    def __init__(self, s: FiniteStructure, slots: list) -> None:
        self.s = s
        self.slots = slots
        # Set while compiling a target atom that mentions the unbound
        # sentinel.
        self.forced = False
        self.read: set[int] = set()

    def bind(self) -> int:
        self.slots.append(None)
        return len(self.slots) - 1

    def load(self, slot: int) -> Thunk:
        self.read.add(slot)
        e = self.slots
        return lambda: e[slot]

    def quantifier(self, exists: bool, slot: int, body: Thunk,
                   values: Callable[[], Iterable]) -> Thunk:
        e = self.slots
        if slot not in self.read:
            def run() -> bool:
                for _ in values():
                    return body()
                return not exists
        elif exists:
            def run() -> bool:
                for value in values():
                    e[slot] = value
                    if body():
                        return True
                return False
        else:
            def run() -> bool:
                for value in values():
                    e[slot] = value
                    if not body():
                        return False
                return True
        return run

    # -- source language ----------------------------------------------------

    def nat_term(self, t: Term, scope: Mapping[str, int]) -> Thunk:
        cls = type(t)
        if cls is Var and t.sort is Sort.NAT:
            slot = scope.get(t.name)
            if slot is None:
                return _failing(f"unbound variable {t.name!r}")
            return self.load(slot)
        if cls is NatConst:
            return _constant(t.value)
        if cls is Succ:
            arg = self.nat_term(t.arg, scope)
            return lambda: arg() + 1
        if cls is Add or cls is Mul or cls is Pair:
            left = self.nat_term(t.left, scope)
            right = self.nat_term(t.right, scope)
            if cls is Add:
                return lambda: left() + right()
            op = "*" if cls is Mul else "pair"

            def bounded() -> int:
                try:
                    return bounded_op(op, left(), right())
                except OverflowError as exc:
                    raise EvalError(str(exc)) from None
            return bounded
        _ill_sorted_term(t, Language.SOURCE)

    def species(self, ref: SpeciesRef,
                sscope: Mapping[int, int]) -> Optional[Thunk]:
        """A thunk for the extension of a species reference: a constant's
        exact extension (None for the full species) or a bound variable's
        family member; None for a node of any other class."""
        cls = type(ref)
        if cls is SpeciesConst:
            try:
                return _constant(self.s.const_extension(ref.index))
            except EvalError as exc:
                return _failing(str(exc))
        if cls is SpeciesVar:
            slot = sscope.get(ref.index)
            if slot is None:
                return _failing(f"unbound species variable X{ref.index}")
            return self.load(slot)
        return None

    def source(self, f: Formula, scope: Mapping[str, int],
               sscope: Mapping[int, int]) -> Thunk:
        s = self.s
        cls = type(f)
        if cls is Bottom:
            return _false
        if cls is Eq or cls is Lt or cls is Apart:
            left = self.nat_term(f.left, scope)
            right = self.nat_term(f.right, scope)
            if cls is Eq:
                return lambda: left() == right()
            if cls is Lt:
                return lambda: left() < right()
            return lambda: left() != right()
        if cls is In:
            element = self.nat_term(f.element, scope)
            extension = self.species(f.species, sscope)
            if extension is None:
                _ill_sorted(f, Language.SOURCE)
            # A family member is decided up to the family bound alone.
            bound = s.family_bound if type(f.species) is SpeciesVar else inf

            def member() -> bool:
                # The element's errors come before the reference's.
                value, members = element(), extension()
                if value > bound:
                    raise PrecisionError(
                        f"membership of {value} exceeds the decided family "
                        f"range 0..{bound}"
                    )
                return members is None or value in members
            return member
        if cls is SpeciesEq:
            left = self.species(f.left, sscope)
            right = self.species(f.right, sscope)
            if left is None or right is None:
                _ill_sorted(f, Language.SOURCE)
            # Species equality mirrors its translated form, a pointwise
            # biconditional quantified over the nat domain, so only that
            # part of the extensions may matter.
            domain = frozenset(s.nat_domain)

            def cut(members: Optional[frozenset[int]]) -> frozenset[int]:
                return domain if members is None else members & domain
            return lambda: cut(left()) == cut(right())
        if cls is And or cls is Or or cls is Implies:
            return _connective(f, lambda g: self.source(g, scope, sscope))
        if cls is Exists or cls is Forall:
            slot = self.bind()
            if f.sort is Sort.NAT:
                body = self.source(f.body, {**scope, f.var: slot}, sscope)
                domain = s.nat_domain
                return self.quantifier(cls is Exists, slot, body,
                                       lambda: domain)
            if f.sort is Sort.SPECIES:
                index = species_binder_index(f.var)
                body = self.source(f.body, scope, {**sscope, index: slot})
                # The family is decided on first use, which may raise.
                return self.quantifier(cls is Exists, slot, body,
                                       lambda: s.species_family)
        _ill_sorted(f, Language.SOURCE)

    # -- target language ----------------------------------------------------

    def real_term(self, t: Term, scope: Mapping[str, int]) -> Thunk:
        s = self.s
        cls = type(t)
        if cls is Var and t.sort is Sort.REAL:
            slot = scope.get(t.name)
            if slot is None:
                if t.name == SENTINEL:
                    self.forced = True
                return _failing(f"unbound variable {t.name!r}")
            return self.load(slot)
        if cls is NatConst:
            return _constant(s.nat_gen(t.value))
        if cls is RealConst:
            if t.name not in s.const_gens:
                return _failing(
                    f"structure does not define constant {t.name!r}")
            return _constant(s.const_gens[t.name])
        if cls is Add or cls is Mul:
            left = self.real_term(t.left, scope)
            right = self.real_term(t.right, scope)
            op, memo = (add if cls is Add else mul), s.memo
            return lambda: memo(op, left(), right())
        _ill_sorted_term(t, Language.TARGET)

    def target(self, f: Formula, scope: Mapping[str, int]) -> Thunk:
        s = self.s
        cls = type(f)
        if cls is Bottom:
            return _false
        if cls is Eq or cls is Lt or cls is Apart:
            self.forced = False
            left = self.real_term(f.left, scope)
            right = self.real_term(f.right, scope)
            if self.forced:
                # The atom mentions the unbound sentinel.
                return _constant(s.sentinel_true)
            return self.comparison(cls, left, right)
        if cls is And or cls is Or or cls is Implies:
            if SENTINEL in scope or cls is And:
                return _connective(f, lambda g: self.target(g, scope))
            if f is SENTINEL_FORMULA:
                return _constant(s.sentinel_true)
            if f.right is SENTINEL_FORMULA:
                # A or φ and (not A) -> φ read A; X -> φ reads not X.
                left, negated = f.left, cls is Implies
                if negated and type(left) is Implies \
                        and type(left.right) is Bottom:
                    left, negated = left.left, False
                a = self.target(left, scope)
                if s.sentinel_true:
                    return lambda: a() or True
                return (lambda: not a()) if negated else a
            return _connective(f, lambda g: self.target(g, scope))
        if cls is DefinedQuant or (cls is Exists or cls is Forall) \
                and f.sort is Sort.REAL:
            slot = self.bind()
            body = self.target(f.body, {**scope, f.var: slot})
            kind = f.kind if cls is DefinedQuant else None
            domain = (s.nat_gens if kind in (QuantKind.EXISTS_NAT,
                                             QuantKind.FORALL_NAT)
                      else s.real_domain)
            exists = cls is Exists or kind in (QuantKind.EXISTS_NAT,
                                               QuantKind.EXISTS_REAL)
            return self.quantifier(exists, slot, body, lambda: domain)
        _ill_sorted(f, Language.TARGET)

    def comparison(self, cls: type, left: Thunk, right: Thunk) -> Thunk:
        s = self.s
        memo, prec = s.memo, s.precision
        if cls in (Lt, Apart):
            wanted = (-1,) if cls is Lt else (-1, 1)

            def strict() -> bool:
                return memo(_witnessed_order, left(), right(), prec) in wanted
            return strict

        def equal() -> bool:
            a, b = left(), right()
            verdict = memo(_witnessed_order, a, b, prec)
            if verdict is not None:
                return verdict == 0
            raise PrecisionError(
                f"equality of {a.name or '?'} and {b.name or '?'} "
                f"{UNDETERMINED} at {prec}")
        return equal


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
    lines.append(f"sentinel: {SENTINEL}")
    return "\n".join(lines) + "\n"


def parse_structure(text: str, sentinel_true: bool = False) -> FiniteStructure:
    """Build (and verify) a structure from its text description.

    Lines are `key: value`; blank lines and # comments are ignored.
    Required: `nats: n n ...`.  Optional: `species: <i> full` or
    `species: <i> singleton <k> moment <m>` (repeatable),
    `orientation: as-written|quotient-normalized`,
    `precision: k=<k> horizon=<h>`, and `sentinel: y` (the sentinel is
    fixed; another name is an error).  Every key but `species` appears
    at most once, and so does each precision field.  Numbers are ASCII
    digits.
    """
    nats: Optional[list[int]] = None
    species: dict[int, SpeciesEncoding] = {}
    orientation = Orientation.AS_WRITTEN
    precision = Precision()
    seen: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition(":")
        key, value = key.strip(), value.strip()
        if not sep:
            raise StructureError(f"expected key: value, got {line!r}")
        if key in seen and key != "species":
            raise StructureError(f"more than one {key}: line")
        seen.add(key)
        try:
            if key == "nats":
                nats = [parse_natural(part) for part in value.split()]
            elif key == "species":
                parts = value.split()
                if not parts:
                    raise StructureError(f"bad species line {line!r}")
                index = parse_natural(parts[0])
                if index in species:
                    raise StructureError(f"species {index} listed twice")
                if parts[1:] == ["full"]:
                    species[index] = encode_silent()
                elif (len(parts) == 5 and parts[1] == "singleton"
                      and parts[3] == "moment"):
                    species[index] = encode_stabilized(
                        parse_natural(parts[4]), parse_natural(parts[2]))
                else:
                    raise StructureError(f"bad species line {line!r}")
            elif key == "orientation":
                if value not in ORIENTATION_NAMES:
                    raise StructureError(f"unknown orientation {value!r}")
                orientation = ORIENTATION_NAMES[value]
            elif key == "precision":
                fields: dict[str, str] = {}
                for part in value.split():
                    name, eq, number = part.partition("=")
                    if not eq:
                        raise ValueError(
                            f"expected field=value, got {part!r}")
                    if name in fields:
                        raise ValueError(f"field {name}= listed twice")
                    fields[name] = number
                missing = [f"{name}=" for name in ("k", "horizon")
                           if name not in fields]
                if missing:
                    raise ValueError(f"missing {' and '.join(missing)}")
                precision = Precision(
                    k=parse_natural(fields.pop("k")),
                    horizon=parse_natural(fields.pop("horizon")))
                if fields:
                    raise StructureError(
                        f"unknown precision fields {sorted(fields)}"
                    )
            elif key == "sentinel":
                if value != SENTINEL:
                    raise StructureError(
                        f"sentinel must be {SENTINEL}, got {value!r}")
            else:
                raise StructureError(f"unknown structure key {key!r}")
        except ValueError as exc:
            if isinstance(exc, StructureError):
                raise
            raise StructureError(f"bad structure line {line!r}: {exc}") from None
    if nats is None:
        raise StructureError("structure needs a nats: line")
    return FiniteStructure(nats, species, orientation, precision,
                           sentinel_true=sentinel_true)
