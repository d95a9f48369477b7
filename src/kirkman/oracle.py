"""Dense-matrix oracle and exhaustive verifiers.

The oracle builds operators as explicit Kronecker products of 2x2 factor
matrices and never calls the label-level product, so it is an independent
check of the algebra module.  Design checks classify blocks with the
oracle's own commutation test, two dense matrix products compared, and
call neither ``pauli.commutes`` nor ``pauli.product``.  Matrices are kept
unnormalized (entries are Gaussian integers; the weight 2**-f is carried
separately as a Fraction), which makes every comparison exact with zero
tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import designs, pauli
from .errors import OracleError
from .report import CheckResult, VerificationReport, check_from_failures as _check

__all__ = [
    "DenseOp",
    "CheckResult",
    "VerificationReport",
    "dense_of",
    "matmul",
    "kron",
    "verify_algebra",
    "verify_design",
    "count_valid_seeds",
    "independent_tuples",
    "sweep_seed_designs",
]

# unnormalized single-qubit factors, indexed by the 2-bit code
_FACTORS = {
    0: ((1, 0), (0, 1)),          # I
    1: ((1, 0), (0, -1)),         # sigma_z
    2: ((0, -1j), (1j, 0)),       # sigma_y
    3: ((0, 1), (1, 0)),          # sigma_x
}


def kron(a, b):
    n, m = len(a), len(b)
    return tuple(
        tuple(a[i // m][j // m] * b[i % m][j % m] for j in range(n * m))
        for i in range(n * m)
    )


def matmul(a, b):
    n = len(a)
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(ra[k] * cb[k] for k in range(n)) for cb in bt)
        for ra in a
    )


def _scaled(matrix, scalar):
    return tuple(tuple(scalar * x for x in row) for row in matrix)


def _sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _conj_t(a):
    return tuple(tuple(x.conjugate() for x in col) for col in zip(*a))


def _trace(a):
    return sum(a[i][i] for i in range(len(a)))


@dataclass(frozen=True)
class DenseOp:
    """A label with its unnormalized tensor matrix and separate weight."""

    label: pauli.PauliLabel
    tensor: tuple
    weight: Fraction


def dense_of(label):
    """Kronecker-product matrix of a label, capped at four qubits."""
    if label.qubits > 4:
        raise OracleError(f"dense oracle capped at 4 qubits, got {label.qubits}")
    matrix = ((1,),)
    for code in label.factors:
        matrix = kron(matrix, _FACTORS[code])
    return DenseOp(label, matrix, pauli.weight_of(label))


@lru_cache(maxsize=None)
def _dense_commutes(x, y, width):
    """True when the dense matrices of the width-bit words x, y commute."""
    da, db = (dense_of(pauli.PauliLabel(v, width)).tensor for v in (x, y))
    return matmul(da, db) == matmul(db, da)


# ---------------------------------------------------------------------------
# algebra verification
# ---------------------------------------------------------------------------

def verify_algebra(n=2):
    """Exhaustively check the label algebra against the dense oracle.

    Covers every ordered product and commutator of the nonidentity labels
    on ``n`` qubits, each dense product computed once; for n=2 also checks
    the generated commutator table against the shipped fixture and the
    seven-zeros row pattern.
    """
    if n > 2:
        raise OracleError("full algebra sweep is supported for n <= 2")
    labels = pauli.all_labels(2 * n)
    dense = {a: dense_of(a) for a in labels}
    prods = {(a, b): matmul(dense[a].tensor, dense[b].tensor) for a in labels for b in labels}

    hermit = []
    for a in labels:
        da = dense[a]
        if _conj_t(da.tensor) != da.tensor:
            hermit.append(f"{a} not Hermitian")
        if _trace(da.tensor) != 0:
            hermit.append(f"{a} not traceless")
    checks = [_check("dense operators Hermitian and traceless", hermit)]

    ident = ((1,),)
    for _ in range(n):
        ident = kron(ident, _FACTORS[0])

    prod_bad = []
    for a in labels:
        for b in labels:
            c, phase = pauli.product(a, b)
            dc = ident if c.is_identity else dense[c].tensor
            if prods[a, b] != _scaled(dc, phase.value):
                prod_bad.append(f"{a}.{b}")
    checks.append(_check(f"label products match dense products ({len(labels) ** 2} pairs)", prod_bad))

    comm_bad = [
        f"{a},{b}"
        for a, b in itertools.combinations(labels, 2)
        if pauli.commutes(a, b) != (prods[a, b] == prods[b, a])
    ]
    checks.append(_check("commutation predicate matches dense commutators", comm_bad))

    cof_bad = []
    for a in labels:
        for b in labels:
            if a == b:
                continue
            imag, c = pauli.commutator_of_labels(a, b)
            lhs = _sub(prods[a, b], prods[b, a])
            wa, wb = pauli.weight_of(a), pauli.weight_of(b)
            if c is None:
                ok = all(x == 0 for row in lhs for x in row)
            else:
                scale = complex(imag * pauli.weight_of(c) / (wa * wb)) * 1j
                ok = lhs == _scaled(dense[c].tensor, scale)
            if not ok:
                cof_bad.append(f"[{a},{b}]")
    checks.append(_check("commutator coefficients match dense arithmetic", cof_bad))

    if n == 2:
        generated = pauli.commutator_table()
        fixture = pauli.fixture_commutator_table()
        table_bad = [
            f"[O{i},O{j}] generated {generated[i, j].text} fixture {fixture[i, j].text}"
            for i, j in generated
            if generated[i, j] != fixture[i, j]
        ]
        checks.append(_check("generated table matches shipped fixture (225 cells)", table_bad))

        zero_bad = []
        for i in pauli.O_INDICES:
            zeros = sum(1 for j in pauli.O_INDICES if generated[i, j].is_zero)
            if zeros != 7:
                zero_bad.append(f"row O{i} has {zeros} zero cells")
        checks.append(_check("each row has exactly seven zero cells (self + commutant)", zero_bad))

        skew_bad = []
        for i, j in generated:
            a, b = generated[i, j], generated[j, i]
            if a.imag != -b.imag or (a.result_o != b.result_o and not a.is_zero):
                skew_bad.append(f"O{i},O{j}")
        checks.append(_check("table is antisymmetric", skew_bad))

    return VerificationReport(f"label algebra on {n} qubit(s)", tuple(checks))


# ---------------------------------------------------------------------------
# design verification
# ---------------------------------------------------------------------------

def verify_design(design):
    """Structural checks of a design, independent of how it was built."""
    p = design.params
    checks = []

    v = (1 << design.m) - 1
    param_bad = []
    if p.v != v:
        param_bad.append(f"v={p.v} expected {v}")
    if p.b != v * (v - 1) // 6:
        param_bad.append(f"b={p.b} expected {v * (v - 1) // 6}")
    if p.r != (v - 1) // 2:
        param_bad.append(f"r={p.r} expected {(v - 1) // 2}")
    if p.lam != 1:
        param_bad.append(f"lambda={p.lam}")
    checks.append(_check("parameters satisfy (2^m - 1, 3, 1) arithmetic", param_bad))

    point_bad = []
    values = [pt.value for pt in design.points]
    if sorted(values) != list(range(1, v + 1)):
        point_bad.append("points are not exactly the nonzero m-bit words")
    checks.append(_check("point set", point_bad))

    ops = {pt.value: design.assignment[pt].value for pt in design.points}
    assign_bad = []
    if 0 in ops.values():
        assign_bad.append("identity assigned to a point")
    if len(set(ops.values())) != len(ops):
        assign_bad.append("assignment is not injective")
    checks.append(_check("assignment is an injection onto nonidentity operators", assign_bad))

    lin_bad = []
    for x, y in itertools.combinations(values, 2):
        if ops[x] ^ ops[y] != ops.get(x ^ y, 0):
            lin_bad.append(f"op({x:0{design.m}b}).op({y:0{design.m}b})")
    checks.append(_check("assignment is XOR-linear", lin_bad))

    block_bad = []
    pair_count = {}
    point_count = {val: 0 for val in values}
    for block in design.blocks:
        a, b, c = (pt.value for pt in block.points)
        if a ^ b ^ c != 0:
            block_bad.append(f"block {block} does not XOR to zero")
        for x, y in ((a, b), (a, c), (b, c)):
            pair_count[(x, y)] = pair_count.get((x, y), 0) + 1
        for x in (a, b, c):
            point_count[x] += 1
    if len(design.blocks) != p.b:
        block_bad.append(f"{len(design.blocks)} blocks, expected {p.b}")
    checks.append(_check("blocks are XOR-zero triples, b of them", block_bad))

    pair_bad = []
    if design.m >= 2:
        for x, y in itertools.combinations(values, 2):
            got = pair_count.get((x, y), 0)
            if got != 1:
                pair_bad.append(f"pair ({x:0{design.m}b},{y:0{design.m}b}) covered {got} times")
    checks.append(_check("every point pair lies in exactly one block (lambda=1)", pair_bad))

    rep_bad = [
        f"point {x:0{design.m}b} replication {n}" for x, n in point_count.items() if n != p.r
    ]
    checks.append(_check("every point has replication r", rep_bad))

    kind_bad = []
    commuting = 0
    width = design.assignment[design.points[0]].width
    for block in design.blocks:
        a, b, c = (ops[pt.value] for pt in block.points)
        ab = _dense_commutes(a, b, width)
        ac = _dense_commutes(a, c, width)
        bc = _dense_commutes(b, c, width)
        if ab and ac and bc:
            expected = designs.BlockKind.COMMUTING
            commuting += 1
        elif not ab and not ac and not bc:
            expected = designs.BlockKind.CYCLIC
        else:
            kind_bad.append(f"block {block} is neither commuting nor cyclic")
            continue
        if design.kinds[block] != expected:
            kind_bad.append(f"block {block} classified {design.kinds[block].value}, expected {expected.value}")
    expected_counts = {3: (3, 4), 4: (15, 20)}
    if design.m in expected_counts:
        want_comm, want_cyc = expected_counts[design.m]
        cyclic = len(design.blocks) - commuting
        if (commuting, cyclic) != (want_comm, want_cyc):
            kind_bad.append(f"classification counts {commuting}/{cyclic}, expected {want_comm}/{want_cyc}")
    checks.append(_check("block classification", kind_bad))

    return VerificationReport(design.describe(), tuple(checks))


# ---------------------------------------------------------------------------
# seed census
# ---------------------------------------------------------------------------

def independent_tuples(m, width=4):
    """All ordered GF(2)-independent m-tuples of nonzero width-bit words."""
    values = range(1, 1 << width)

    def extend(prefix, span):
        if len(prefix) == m:
            yield tuple(prefix)
            return
        for v in values:
            if v in span:
                continue
            prefix.append(v)
            yield from extend(prefix, span | {s ^ v for s in span})
            prefix.pop()

    yield from extend([], {0})


def count_valid_seeds(m, per_family=None):
    """Exhaustive census of ordered seed tuples accepted for size ``m``.

    Sizes 1, 2 and 4 are counted over all fifteen two-qubit operators.
    For m=3 the generation rule draws the three seeds from a single
    commuting family (one operator plus its six-member commutant, a set
    closed under multiplication); every independent triple lies in exactly
    one such family, and the per-family census is the same for each of the
    fifteen families, so by default the per-family count is returned.
    Pass ``per_family=False`` to count over all fifteen operators instead.
    """
    if m not in (1, 2, 3, 4):
        raise OracleError(f"unsupported seed count {m}")
    if per_family is None:
        per_family = m == 3
    if not per_family:
        return sum(1 for _ in independent_tuples(m))
    if m != 3:
        raise OracleError("per-family census is defined for m=3 only")
    by_family = {}
    for tup in independent_tuples(3):
        a, b, c = tup
        family = frozenset({a, b, c, a ^ b, a ^ c, b ^ c, a ^ b ^ c})
        by_family[family] = by_family.get(family, 0) + 1
    counts = set(by_family.values())
    if len(by_family) != 15 or len(counts) != 1:
        raise OracleError(f"unexpected family census: {len(by_family)} families, counts {sorted(counts)}")
    return counts.pop()


def sweep_seed_designs(m):
    """Expand and verify the design of every valid seed tuple of size m.

    Returns ``(count, failures)`` where failures lists the seed tuples whose
    design verification did not pass.
    """
    count = 0
    failures = []
    for tup in independent_tuples(m):
        seeds = tuple(pauli.PauliLabel(v, 4) for v in tup)
        design = designs.expand_seeds(seeds)
        count += 1
        if not verify_design(design).passed:
            failures.append(tup)
    return count, failures
