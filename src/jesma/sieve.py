"""Exponential congruence engine.

Solves  sum_i c_i * prod_j b_ij ** e_ij  == 0 (mod m)  exactly, where each
exponent is a linear form in integer variables or a valuation symbol times
such a form.  Every variable's residue is periodic modulo the
multiplicative order of the bases it feeds, so the full solution set lives
on a finite torus, which is searched exactly: independent groups of
variables give separate partial sums.  A "killing modulus" is an m whose
torus holds no solutions under the given constraints (residue classes,
fixed values and lower bounds, the ones a certificate can state): it
certifies that the original equation has no integer solutions
satisfying them.

The domain is: every variable exactly its fixed value or at least its
stated lower bound (1 when neither is stated), and every exponent >= 0.
One rule, _exp_lower_bound, bounds an exponent from bounds of linear
forms: the scan sums the stated bounds of their variables, the verifier
proves them from a proof branch's facts.  No other bound is assumed; an
exponent with a negative coefficient gets at least the domain's floor 0.

One evaluator, CongruenceFold, holds the solutions: it reduces each
variable group to the residues its partial sum reaches, and streams the
group of most cells against the sumset of the others.  It has two entry
points, which raise the same errors from the same checks:

* congruence_fold answers emptiness, a projection, the class count and
  the first class without listing cells: for the killing-modulus scan
  and the verifier;
* congruence_solutions lists every solving cell (CongruenceFold.cells),
  for callers that read the cells (two_term_solutions and the tests).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property
from itertools import product as iproduct

from .arith import _TRIAL_LIMIT, mult_order
from .record import FRESH, Frozen, Record, replace
from .symbolic import ExpExpr, Lin, Term

__all__ = [
    "RESIDUE_MODULUS_MAX",
    "ConstraintSet",
    "ResidueClassSet",
    "SieveError",
    "NotAUnitError",
    "UnsupportedModulusError",
    "TorusTooLargeError",
    "congruence_solutions",
    "congruence_fold",
    "CongruenceFold",
    "two_term_solutions",
    "find_killing_modulus",
    "KillingWitness",
    "refine_residues",
    "merge_residue",
]

TORUS_CELL_LIMIT = 4_000_000
MODULUS_SCAN_MAX = 1_000  # largest m_max of find_killing_modulus: each modulus may cost a torus
# Largest modulus congruence_solutions takes.  Below it, mult_order factors m
# and its totient by trial division alone, so a modulus read from a
# certificate cannot send the factoring into Pollard rho without bound.
MODULUS_MAX = _TRIAL_LIMIT**2
# Largest modulus whose residues are enumerated.  Combining two residue
# constraints on one name lists every residue below the lcm of their moduli,
# and a certificate or a command line chooses those moduli, so without a
# limit it would choose the time and memory spent.
RESIDUE_MODULUS_MAX = 100_000
# How far past the cap an atom's linear part and symbol are bounded: a
# negative offset of a million bits would otherwise cost the verifier a
# proof per bit.
_BOUND_SLACK_MAX = 1 << 16


class SieveError(ValueError):
    pass


class NotAUnitError(SieveError):
    pass


class UnsupportedModulusError(SieveError):
    """The modulus mixes zero-divisor bases in a way the torus model
    cannot represent; the caller should pick a different modulus."""


class TorusTooLargeError(SieveError):
    pass


def refine_residues(m0: int, s0, m: int, allowed) -> tuple[int, frozenset]:
    """The residues mod lcm(m0, m) that lie in s0 (mod m0) and in allowed (mod m).

    Raises ValueError when the lcm is above RESIDUE_MODULUS_MAX."""
    m1 = math.lcm(m0, m)
    if m1 > RESIDUE_MODULUS_MAX:
        raise ValueError(f"residue modulus lcm({m0}, {m}) = {m1} is above {RESIDUE_MODULUS_MAX}")
    return m1, frozenset(a for a in range(m1) if a % m0 in s0 and a % m in allowed)


def merge_residue(residues: Mapping, name: str, modulus: int, allowed) -> dict:
    """A copy of residues (name -> (modulus, allowed residues)) in which name
    is also restricted to allowed (mod modulus): refined when name is known,
    stored as given, without listing any residue, when it is new.

    Raises ValueError as refine_residues does."""
    allowed = frozenset(a % modulus for a in allowed)
    merged = dict(residues)
    merged[name] = refine_residues(*merged[name], modulus, allowed) if name in merged else (modulus, allowed)
    return merged


class ConstraintSet(Frozen):
    """What a certificate's constraints can state about the exponents.

    residues maps a variable (or exponent-atom name) to (modulus, allowed
    residue set); fixed pins a variable to one value; lower_bounds maps a
    variable to its stated minimum (every variable is >= 1 unless stated
    or fixed, and every exponent >= 0).  Each dict left out is a new
    empty one.
    """

    _fields = ("residues", "fixed", "lower_bounds")

    def __init__(
        self,
        residues: dict[str, tuple[int, frozenset[int]]] = FRESH,
        fixed: dict[str, int] = FRESH,
        lower_bounds: dict[str, int] = FRESH,
    ):
        object.__setattr__(self, "residues", {} if residues is FRESH else residues)
        object.__setattr__(self, "fixed", {} if fixed is FRESH else fixed)
        object.__setattr__(self, "lower_bounds", {} if lower_bounds is FRESH else lower_bounds)

    @staticmethod
    def none() -> "ConstraintSet":
        return ConstraintSet()

    def lower_bound(self, name: str) -> int:
        if name in self.fixed:
            return self.fixed[name]
        return self.lower_bounds.get(name, 1)

    def with_fixed(self, name: str, value: int) -> "ConstraintSet":
        return replace(self, fixed={**self.fixed, name: value})

    def with_residue(self, name: str, modulus: int, allowed: set[int]) -> "ConstraintSet":
        if modulus < 2:
            raise SieveError(f"constraint modulus must be >= 2, got {modulus}")
        try:
            return replace(self, residues=merge_residue(self.residues, name, modulus, allowed))
        except ValueError as e:
            raise SieveError(f"constraints on {name}: {e}") from None

    def with_parity(self, name: str, parity: int) -> "ConstraintSet":
        return self.with_residue(name, 2, {parity % 2})

    def with_lower_bound(self, name: str, bound: int) -> "ConstraintSet":
        return replace(self, lower_bounds={**self.lower_bounds, name: bound})

    def residue_allows(self, name: str, value: int) -> bool:
        if name in self.residues:
            m, allowed = self.residues[name]
            return value % m in allowed
        return True

    def unsatisfiable_names(self) -> list[str]:
        bad = [n for n, (_, s) in self.residues.items() if not s]
        bad += [n for n, v in self.fixed.items() if not self.residue_allows(n, v)]
        return sorted(set(bad))


class ResidueClassSet(Frozen):
    """Exact solution set of one congruence on its finite torus.

    Each tuple lists one residue per variable, reduced into [0, period).
    The set is complete: a tuple satisfies the congruence under the
    constraints iff it is listed.
    """

    _fields = ("modulus", "variables", "periods", "tuples")

    def __init__(
        self, modulus: int, variables: tuple[str, ...], periods: tuple[int, ...], tuples: frozenset[tuple[int, ...]]
    ):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "periods", periods)
        object.__setattr__(self, "tuples", tuples)

    def is_empty(self) -> bool:
        return not self.tuples

    def period_of(self, name: str) -> int:
        return self.periods[self.variables.index(name)]

    def project(self, name: str) -> frozenset[int]:
        i = self.variables.index(name)
        return frozenset(t[i] for t in self.tuples)

    def __len__(self) -> int:
        return len(self.tuples)


def _is_const_exp(e: ExpExpr) -> bool:
    return e.sym is None and e.lin.is_const()


def _lin_lower_bound(lin: Lin, constraints: ConstraintSet) -> int:
    # sum of per-variable lower bounds; with a negative coefficient the form
    # is not known to be >= 0
    total = lin.const
    for v, c in lin.coeffs:
        if c < 0:
            return -1
        total += c * constraints.lower_bound(v)
    return total


def _exp_lower_bound(e: ExpExpr, lin_bound, cap: int) -> int:
    """A lower bound of the exponent, exact up to cap.  lin_bound(lin, cap)
    gives one of a linear form, exact up to cap, or -1 when lin >= 0 is
    not known: the stated bounds in the scan, Fourier-Motzkin proofs in the
    verifier.  Every exponent is >= 0 in the domain, so one with a negative
    coefficient never reads below that floor."""
    if _is_const_exp(e):
        return e.lin.const
    if e.sym is None:
        lb = lin_bound(e.lin, cap)
    else:
        # sym*(lin) + off reaches cap only when sym*(lin) reaches cap - off
        cap += min(max(0, -e.off), _BOUND_SLACK_MAX)
        lin_lb, sym_lb = lin_bound(e.lin, cap), lin_bound(Lin.var(e.sym), cap)
        lb = 0 if lin_lb < 0 or sym_lb < 0 else sym_lb * lin_lb + e.off
    return max(lb, 0) if any(c < 0 for _, c in e.lin.coeffs) else lb


def _term_is_constant_zero(term: Term, m: int, lin_bound) -> bool:
    # A term vanishes identically mod m when m divides coef * prod(b**lb)
    # with lb >= 0 a proven lower bound for each exponent.  Divisibility by
    # m never needs more than bit_length(m) copies of a base, so cap there.
    # A power of a unit mod m never changes whether the product is 0, so the
    # non-unit bases decide it, and a unit base's bound is read only for the
    # sign guard, once the term would vanish.
    cap = m.bit_length() + 1
    acc = term.coef % m
    units = []
    for p in term.powers:
        if math.gcd(p.base, m) == 1:
            units.append(p)
            continue
        lb = _exp_lower_bound(p.exp, lin_bound, cap)
        if lb < 0:
            return False
        acc = acc * pow(p.base, min(lb, cap), m) % m
    return acc == 0 and all(_exp_lower_bound(p.exp, lin_bound, cap) >= 0 for p in units)


class _EvalPower(Record):
    _fields = ("base", "order", "exp", "atom")

    def __init__(self, base: int, order: int, exp: ExpExpr, atom: str | None):
        self.base = base
        self.order = order
        self.exp = exp
        self.atom = atom  # enumeration name when exp is symbol-scaled


def _build_plan(
    terms: list[Term], m: int, residues: Mapping, lin_bound, order_cap: int | None
) -> tuple[list[tuple[int, list[_EvalPower]]], list[tuple[str, int]]]:
    live: list[tuple[int, list[_EvalPower]]] = []
    moduli: dict[str, int] = {}
    orders: dict[int, int] = {}

    def order_of(base: int) -> int:
        b = base % m
        if b not in orders:
            orders[b] = mult_order(b, m)
            if order_cap is not None and orders[b] > order_cap:
                raise TorusTooLargeError(f"order of {base} mod {m} is {orders[b]} > cap {order_cap}")
        return orders[b]

    for term in terms:
        varying = [p for p in term.powers if not _is_const_exp(p.exp)]
        if varying and _term_is_constant_zero(term, m, lin_bound):
            continue
        if any(math.gcd(p.base, m) != 1 for p in varying):
            raise UnsupportedModulusError(
                f"term {term} has a non-unit base modulo {m} and does not vanish"
            )
        evals: list[_EvalPower] = []
        const_part = term.coef % m
        for p in term.powers:
            if _is_const_exp(p.exp):
                if p.exp.lin.const < 0:
                    raise SieveError(f"negative constant exponent in {term}")
                const_part = const_part * pow(p.base, p.exp.lin.const, m) % m
                continue
            order = order_of(p.base)
            atom = p.exp.atom_name() if p.exp.sym is not None else None
            evals.append(_EvalPower(p.base % m, order, p.exp, atom))
            if atom is not None:
                moduli[atom] = math.lcm(moduli.get(atom, 1), order)
            else:
                for v, _ in p.exp.lin.coeffs:
                    moduli[v] = math.lcm(moduli.get(v, 1), order)
        live.append((const_part, evals))

    for name, (cm, _) in residues.items():
        if name in moduli:
            moduli[name] = math.lcm(moduli[name], cm)
    plan = sorted(moduli.items())
    cells = 1
    for _, period in plan:
        cells *= period
        if cells > TORUS_CELL_LIMIT:
            raise TorusTooLargeError(f"torus has more than {TORUS_CELL_LIMIT} cells")
    return live, plan


def congruence_solutions(
    terms: list[Term],
    m: int,
    constraints: ConstraintSet | None = None,
    order_cap: int | None = None,
) -> ResidueClassSet:
    """Exact solutions of  sum(terms) == 0 (mod m)  on the residue torus,
    every solving cell listed: for callers that read the cells themselves.
    The cells are those of congruence_fold(...).cells(), with its errors.

    Variables with plain linear exponents are enumerated directly; an
    exponent of the shape sym*(linear) is enumerated as one opaque atom
    over all residues, which can only enlarge the solution set and so
    keeps emptiness results sound.
    """
    fold = congruence_fold(terms, m, constraints, order_cap)
    return ResidueClassSet(m, fold.variables, fold.periods, frozenset(fold.cells()))


def congruence_fold(
    terms: list[Term],
    m: int,
    constraints: ConstraintSet | None = None,
    order_cap: int | None = None,
    lin_bound=None,
) -> "CongruenceFold":
    """The solutions of  sum(terms) == 0 (mod m)  on the residue torus,
    held as the residues each variable group's partial sum can reach
    rather than as cells: the scan's and the verifier's questions (is the
    set empty, its projection onto one variable, how many classes it has
    and which is first) need no list of cells.  Every error is raised
    here, from the argument checks and the plan, before a cell is read.

    lin_bound(lin, cap) bounds the linear forms in the exponents, as
    _exp_lower_bound reads it; by default from the constraints' stated
    bounds, while the verifier proves bounds from a branch's facts."""
    if m < 2:
        raise SieveError(f"modulus must be >= 2, got {m}")
    if m > MODULUS_MAX:
        raise SieveError(f"a {m.bit_length()}-bit modulus is above the limit {MODULUS_MAX}")
    if not terms:
        raise SieveError("empty congruence")
    constraints = constraints or ConstraintSet.none()
    lin_bound = lin_bound or (lambda lin, cap: _lin_lower_bound(lin, constraints))
    live, plan = _build_plan(terms, m, constraints.residues, lin_bound, order_cap)
    names = tuple(n for n, _ in plan)
    periods = tuple(p for _, p in plan)
    return CongruenceFold(m, names, periods, live, constraints)


def _candidates(names: tuple[str, ...], periods: tuple[int, ...], constraints: ConstraintSet) -> list[list[int]]:
    """The values, ascending, each torus variable takes under the constraints."""
    candidates: list[list[int]] = []
    for name, period in zip(names, periods):
        if name in constraints.fixed:
            v = constraints.fixed[name] % period
            opts = [v] if constraints.residue_allows(name, constraints.fixed[name]) else []
        else:
            opts = [v for v in range(period) if constraints.residue_allows(name, v)]
        candidates.append(opts)
    return candidates


def _groups(n: int, compiled: list[tuple[int, list[tuple[int, list[int]]]]]) -> list[list[int]]:
    """The torus variables (by index) in groups, each sorted: variables fall
    into one group when a compiled term uses both, so no term spans two
    groups and the sum of the terms splits into one partial sum per group."""
    groups = [{i} for i in range(n)]
    for _, tables in compiled:
        link = {i for i, _ in tables}
        touched = [g for g in groups if not g.isdisjoint(link)]
        if touched:
            groups = [g for g in groups if g.isdisjoint(link)] + [set().union(*touched)]
    return [sorted(g) for g in groups]


def _side_rows(
    side: list[int],
    candidates: list[list[int]],
    compiled: list[tuple[int, list[tuple[int, list[int]]]]],
):
    """Yield (prefix, sums) for each row of the sub-torus on the variables
    at the indices in side, which ascend and are not empty.  A row is one
    choice of values for every variable but the last, in ascending order,
    and sums[k] is the sum, not yet reduced mod m, of the compiled terms on
    those variables at the cell prefix + (candidates[last][k],).  A row's
    sums are formed a column of table values at a time.
    """
    *head, last = side
    column = candidates[last]
    at = {i: k for k, i in enumerate(side)}
    flat, lined = [], []  # terms without and with the last variable
    for coef, tables in compiled:
        if tables[0][0] in at:
            lookups = [(at[i], table) for i, table in tables if i != last]
            if tables[-1][0] == last:
                lined.append((coef, lookups, [tables[-1][1][v] for v in column]))
            else:
                flat.append((coef, lookups))
    for prefix in iproduct(*(candidates[i] for i in head)):
        # exact products of table entries, reduced by the caller
        base = 0
        for t, lookups in flat:
            for k, table in lookups:
                t *= table[prefix[k]]
            base += t
        sums = [base] * len(column)
        for t, lookups, values in lined:
            for k, table in lookups:
                t *= table[prefix[k]]
            sums = [s + t * f for s, f in zip(sums, values)]
        yield prefix, sums


def _side_sums(
    side: list[int],
    candidates: list[list[int]],
    compiled: list[tuple[int, list[tuple[int, list[int]]]]],
):
    """Yield (partial sum, values) for each cell of the sub-torus on the
    variables at the indices in side (ascending), the cells in ascending
    order: the sum, not yet reduced mod m, of the compiled terms on those
    variables, and the cell's values in side order.
    """
    if not side:
        yield 0, ()
        return
    column = candidates[side[-1]]
    for prefix, sums in _side_rows(side, candidates, compiled):
        for v, total in zip(column, sums):
            yield total, (*prefix, v)


def _compile_terms(
    live: list[tuple[int, list[_EvalPower]]],
    names: tuple[str, ...],
    periods: tuple[int, ...],
    m: int,
) -> tuple[int, list[tuple[int, list[tuple[int, list[int]]]]]]:
    """Residue tables that turn each torus cell into list lookups.

    A term becomes a coefficient and, per torus variable it uses, a table
    F with F[v] = prod(base ** (k*v mod order)) mod m over its powers,
    where k is the variable's coefficient in the exponent (1 for a
    symbol atom).  Exponent constants and atom offsets fold into the
    coefficient, and terms with no variables into one offset.

    Splitting base ** (sum of parts) into a product and reducing each
    part modulo the order is exact: _build_plan admits only unit bases
    for varying exponents, so base ** order == 1 (mod m), and each base's
    order divides the period of every variable it feeds, so F[v] holds
    for every integer congruent to v modulo that period.
    """
    index = {name: i for i, name in enumerate(names)}
    offset = 0
    compiled = []
    for const_part, evals in live:
        if not evals:
            offset += const_part
            continue
        coef = const_part
        tables: dict[int, list[int]] = {}
        for ep in evals:
            if ep.atom is not None:
                parts, shift = ((ep.atom, 1),), ep.exp.off
            else:
                parts, shift = ep.exp.lin.coeffs, ep.exp.lin.const
            coef = coef * pow(ep.base, shift % ep.order, m) % m
            for name, k in parts:
                i = index[name]
                row = [pow(ep.base, k * v % ep.order, m) for v in range(periods[i])]
                old = tables.get(i)
                tables[i] = row if old is None else [a * b % m for a, b in zip(old, row)]
        compiled.append((coef, sorted(tables.items())))
    return offset, compiled


class CongruenceFold:
    """The solution set of one congruence on its torus, folded: for each
    variable group (_groups), the residues mod m its partial sum reaches.

    A group of one term (a monomial such as 99^y*2^a*5^b) folds as a
    product set of its variables' table values; a group of several terms
    enumerates its own cells (_side_rows); across groups the residues
    combine as a sumset mod m.  No cell of the whole torus is listed, so a
    question costs about the sum of the groups' sizes, not their product.
    The group with the most cells is met against the sumset of the others
    as it is enumerated, not held: emptiness stops at its first meeting,
    and a torus that is one large group of several terms is never held
    whole.

    cells() lists the solving cells, which congruence_solutions returns
    as a ResidueClassSet with these modulus, variables and periods; and
    is_empty(), project(name), len() and first() answer as that set's
    is_empty(), project(name), len() and sorted(tuples)[0] do.
    """

    def __init__(
        self,
        modulus: int,
        variables: tuple[str, ...],
        periods: tuple[int, ...],
        live: list[tuple[int, list[_EvalPower]]],
        constraints: ConstraintSet,
    ):
        self.modulus = modulus
        self.variables = variables
        self.periods = periods
        self._dead = bool(constraints.unsatisfiable_names())
        self._candidates = _candidates(variables, periods, constraints)
        offset, self._compiled = _compile_terms(live, variables, periods, modulus)
        self._target = -offset % modulus  # what the groups' partial sums must add up to
        self._groups = _groups(len(variables), self._compiled)
        self._group_of = {i: j for j, group in enumerate(self._groups) for i in group}
        self._terms = [[] for _ in self._groups]
        for term in self._compiled:
            self._terms[self._group_of[term[1][0][0]]].append(term)
        cells = [math.prod(len(self._candidates[i]) for i in group) for group in self._groups]
        self._big = max(range(len(cells)), key=cells.__getitem__, default=None)  # None: no variables
        self._reach: dict[int, set[int]] = {}  # group -> the residues it reaches, as read
        self._empty: bool | None = None
        self._count: int | None = None

    def period_of(self, name: str) -> int:
        return self.periods[self.variables.index(name)]

    def is_empty(self) -> bool:
        if self._empty is None:
            self._empty = self._dead or self._need(self._big, self._candidates, self._reach).isdisjoint(
                self._stream(self._big, self._candidates)
            )
        return self._empty

    def __len__(self) -> int:
        """The number of solution classes: ways to pick a cell per group
        whose partial sums add up to the target."""
        if self._count is None:
            self._count = 0 if self.is_empty() else self._count_classes()
        return self._count

    def project(self, name: str) -> frozenset[int]:
        """The values name takes over the solution set."""
        i = self.variables.index(name)
        if self.is_empty():
            return frozenset()
        return frozenset(self._values(i, self._candidates, self._reach))

    def cells(self) -> Iterator[tuple[int, ...]]:
        """Yield each solving cell, its values in the order of variables.
        The cells of the other groups are tabulated by the residue of their
        partial sum, and each cell of the largest group with partial sum t
        meets the tabulated cells with residue target - t, as is_empty()
        meets the residues."""
        if self._dead:
            return
        m = self.modulus
        big = self._groups[self._big] if self._big is not None else []
        rest = [i for i in range(len(self.variables)) if i not in big]
        table: dict[int, list[tuple[int, ...]]] = {}
        for total, part in _side_sums(rest, self._candidates, self._compiled):
            table.setdefault(total % m, []).append(part)
        at = {i: k for k, i in enumerate(rest + big)}  # position in (rest values + big values)
        order = [at[i] for i in range(len(self.variables))]
        for total, part in _side_sums(big, self._candidates, self._compiled):
            for head in table.get((self._target - total) % m, ()):
                cell = head + part
                yield tuple([cell[k] for k in order])

    def first(self) -> tuple[int, ...] | None:
        """The lexicographically first solution class, or None when there is
        none: each variable in turn takes its least value that still leaves
        a solution.  A group of several terms narrows to the residues whose
        least cell (_tables) takes that value, since a residue's least cell
        is also its least with any prefix that the cell itself starts with."""
        if self.is_empty():
            return None
        candidates, reach = list(self._candidates), dict(self._reach)
        for j, (counts, _) in self._tables.items():
            reach[j] = set(counts)
        for i in range(len(candidates)):
            j = self._group_of[i]
            if j in self._tables:
                least, at = self._tables[j][1], self._groups[j].index(i)
                live = reach[j] & self._need(j, candidates, reach)
                value = min(least[r][at] for r in live)
                reach[j] = {r for r in live if least[r][at] == value}
                candidates[i] = [value]
            else:
                candidates[i] = [min(self._values(i, candidates, reach))]
                reach.pop(j, None)
        return tuple(c[0] for c in candidates)

    @cached_property
    def _tables(self) -> dict[int, tuple[dict[int, int], dict[int, tuple[int, ...]]]]:
        """For each group of several terms, its cells tabulated once by the
        residue of their partial sum: residue -> number of cells, and
        residue -> least cell.  The largest group keeps only the residues
        the other groups leave it (_need), so its table is no larger than
        their sumset.  The rows (_side_rows) come in ascending order, so the
        first cell seen with a residue is its least."""
        m = self.modulus
        tables = {}
        for j, group in enumerate(self._groups):
            if len(self._terms[j]) != 1:
                keep = self._need(j, self._candidates, self._reach) if j == self._big else None
                counts: dict[int, int] = {}
                least: dict[int, tuple[int, ...]] = {}
                column = self._candidates[group[-1]]
                for prefix, sums in _side_rows(group, self._candidates, self._compiled):
                    for v, total in zip(column, sums):
                        r = total % m
                        if r in counts:
                            counts[r] += 1
                        elif keep is None or r in keep:
                            counts[r], least[r] = 1, (*prefix, v)
                tables[j] = counts, least
        return tables

    def _stream(self, j: int | None, candidates: list[list[int]]) -> Iterable[int]:
        """The residues of group j's partial sum: for a monomial, a product
        set over every variable but the last, streamed over the last; cell
        by cell for several terms; and 0 alone for no group."""
        if j is None:
            return (0,)
        m = self.modulus
        if len(self._terms[j]) == 1:
            (coef, tables), = self._terms[j]
            reach = {coef}
            for i, table in tables[:-1]:
                values = {table[v] for v in candidates[i]}
                reach = {r * t % m for r in reach for t in values}
            i, table = tables[-1]
            last = {table[v] for v in candidates[i]}
            return (r * t % m for r in reach for t in last)
        return (total % m for total, _ in _side_sums(self._groups[j], candidates, self._compiled))

    def _need(self, j: int | None, candidates: list[list[int]], reach: dict[int, set[int]]) -> set[int]:
        """The residues group j's partial sum must reach for a solution: the
        target less each sum the other groups reach under candidates, whose
        residue sets reach caches."""
        m = self.modulus
        sums = {0}
        for k in range(len(self._groups)):
            if k != j:
                if k not in reach:
                    reach[k] = set(self._stream(k, candidates))
                sums = {(r + t) % m for r in sums for t in reach[k]}
        return {(self._target - r) % m for r in sums}

    def _count_classes(self) -> int:
        m = self.modulus
        sums = {0: 1}
        for k in range(len(self._groups)):
            if k != self._big:
                sums = _combine_counts(sums, self._counted(k), m, int.__add__)
        return sum(c * sums.get((self._target - r) % m, 0) for r, c in self._counted(self._big).items())

    def _counted(self, j: int | None) -> dict[int, int]:
        """Residue -> number of cells of group j's partial sum; for the
        largest group of several terms, only the residues its table keeps."""
        if j is None:
            return {0: 1}
        m = self.modulus
        if len(self._terms[j]) == 1:
            (coef, tables), = self._terms[j]
            counts = {coef: 1}
            for i, table in tables:
                values: dict[int, int] = {}
                for v in self._candidates[i]:
                    values[table[v]] = values.get(table[v], 0) + 1
                counts = _combine_counts(counts, values, m, int.__mul__)
            return counts
        return self._tables[j][0]

    def _values(self, i: int, candidates: list[list[int]], reach: dict[int, set[int]]) -> set[int]:
        """The candidate values of variable i that some solution takes."""
        m = self.modulus
        j = self._group_of[i]
        need = self._need(j, candidates, reach)
        if len(self._terms[j]) == 1:
            (coef, tables), = self._terms[j]
            rest, own = {coef}, None
            for k, table in tables:
                if k == i:
                    own = table
                    continue
                values = {table[v] for v in candidates[k]}
                rest = {r * t % m for r in rest for t in values}
            hits = {t for t in {own[a] for a in candidates[i]} if any(r * t % m in need for r in rest)}
            return {a for a in candidates[i] if own[a] in hits}
        at = self._groups[j].index(i)
        return {
            combo[at]
            for total, combo in _side_sums(self._groups[j], candidates, self._compiled)
            if total % m in need
        }


def _combine_counts(a: dict[int, int], b: dict[int, int], m: int, op) -> dict[int, int]:
    """The residues op(r, t) mod m over r in a and t in b, each counted by
    the products of its operands' counts, summed."""
    out: dict[int, int] = {}
    for r, c in a.items():
        for t, d in b.items():
            k = op(r, t) % m
            out[k] = out.get(k, 0) + c * d
    return out


def two_term_solutions(
    a: int, b: int, m: int, constraints: ConstraintSet | None = None
) -> ResidueClassSet:
    """All (z, x) residues with a**z == b**x (mod m); bases must be units."""
    if m < 2:
        raise SieveError(f"modulus must be >= 2, got {m}")
    for name, base in (("a", a), ("b", b)):
        if math.gcd(base, m) != 1:
            raise NotAUnitError(f"{name} = {base} is not a unit modulo {m}")
    terms = [
        Term.of(1, (a, ExpExpr(Lin.var("z")))),
        Term.of(-1, (b, ExpExpr(Lin.var("x")))),
    ]
    return congruence_solutions(terms, m, constraints)


class KillingWitness(Frozen):
    """The record of a killing-modulus scan.  modulus is the killing
    modulus, or None when no scanned modulus kills; scanned and skipped
    list every modulus tried."""

    _fields = ("modulus", "scanned", "skipped")

    def __init__(self, modulus: int | None, scanned: tuple[int, ...], skipped: tuple[tuple[int, str], ...]):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "scanned", scanned)
        object.__setattr__(self, "skipped", skipped)


def find_killing_modulus(
    terms: list[Term],
    constraints: ConstraintSet | None = None,
    m_max: int = 200,
    order_cap: int = 120,
) -> KillingWitness:
    """Smallest m <= m_max whose congruence has no solutions under the
    constraints, or a witness with modulus None.  Moduli the torus model
    cannot represent (zero-divisor bases, oversized orders) are skipped
    and recorded."""
    if not 2 <= m_max <= MODULUS_SCAN_MAX:
        raise SieveError(f"m_max must be in [2, {MODULUS_SCAN_MAX}], got {m_max}")
    if order_cap < 1:
        raise SieveError(f"order_cap must be >= 1, got {order_cap}")
    constraints = constraints or ConstraintSet.none()
    # a certificate states lower bounds per variable, so a kill may rest on no other
    for name in constraints.lower_bounds:
        if not name.isidentifier():
            raise SieveError(f"lower bound on {name!r}: a certificate states lower bounds on variables only")
    scanned: list[int] = []
    skipped: list[tuple[int, str]] = []
    for m in range(2, m_max + 1):
        try:
            fold = congruence_fold(terms, m, constraints, order_cap=order_cap)
        except (UnsupportedModulusError, TorusTooLargeError) as e:
            skipped.append((m, str(e)))
            continue
        scanned.append(m)
        if fold.is_empty():
            return KillingWitness(m, tuple(scanned), tuple(skipped))
    return KillingWitness(None, tuple(scanned), tuple(skipped))
