"""The four seeded workloads of the cqekit benchmark.

Every workload is a closed loop: one client in one process, with no threads,
issues the next operation only after the last one returned.  A workload is
built in three steps whose costs are kept apart:

* ``__init__(rng)``  -- the benchmark's own input generation (not timed);
* ``prepare()``      -- library-side preparation, counted in ``setup_s``;
* ``build_pool()``   -- input generation that needs prepared objects (not timed).

``op(i)`` runs one operation on pool entry ``i`` and is the timed unit.
``check(i, result)`` judges one result outside the timed region and returns
``OK``, ``WRONG``, or ``MISS`` (a documented approximation missing a true
answer; see ``Union``).  ``fingerprint(result)`` lets repeats of a pool entry
be compared with the checked first result instead of being re-checked; it is
kept for the whole run, so it stays small.  ``label(i)`` names the query
class of pool entry ``i`` for a per-class count of outcomes (None: no
classes).

Where an input property drives an op's cost (channel, letter count, grid
size, region-set size, query position), pools are stratified over it: a
seed changes the inputs inside each stratum but not the mix, and the loop
runs whole passes over the pool, so runs on different seeds measure the
same mix.

The library is reached through module attributes at call time (for example
``regions.corner_points``) so that the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math

import numpy as np

import cqekit.channels as channels
import cqekit.cli as cli
import cqekit.closedform as closedform
import cqekit.entropics as entropics
import cqekit.regions as regions

OK, WRONG, MISS = "ok", "wrong", "miss"
TOL = 1e-9
E_MAX = 2.0
CHECK_SUITES = ("identities", "fannes", "af", "mi", "gentle", "dpi")
CURVE_NAMES = {"ds": "DS", "cef": "CEF", "ce": "SHOR_CE"}


class Workload:
    """Defaults for the steps a workload may not need."""

    pool: list

    def prepare(self) -> None:
        pass

    def build_pool(self) -> None:
        pass

    @staticmethod
    def fingerprint(result):
        return result

    def label(self, i: int) -> str | None:
        return None


def digest(result: tuple[int, str]) -> tuple[int, str]:
    """(exit code, SHA-256 of the captured text) of a cli.main op."""
    code, text = result
    return code, hashlib.sha256(text.encode()).hexdigest()


def haar_pure(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_entries(letters: int, d: int, rng: np.random.Generator) -> list:
    """`letters` Haar-random pure states on A (x) A' (both dimension d)."""
    probs = rng.random(letters) + 0.05
    probs /= probs.sum()
    return [(float(p), haar_pure(d * d, rng)) for p in probs]


def h2(q: float) -> float:
    if q <= 0.0 or q >= 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(b))


# --------------------------------------------------------------------------
# region: ensemble -> state -> region constants, vertices, child protocols
# --------------------------------------------------------------------------

def _entropy(m: np.ndarray) -> float:
    w = np.linalg.eigvalsh(m)
    w = w[w > 1e-15]
    return float(-(w * np.log2(w)).sum())


def _block_diag(blocks: list[np.ndarray]) -> np.ndarray:
    n = sum(b.shape[0] for b in blocks)
    out = np.zeros((n, n), dtype=complex)
    at = 0
    for b in blocks:
        k = b.shape[0]
        out[at:at + k, at:at + k] = b
        at += k
    return out


def dense_oracle(entries, vmat: np.ndarray, d_a: int, d_b: int, d_e: int):
    """(i_axb, i_xb, i_coh) from explicit classical-quantum density matrices.

    Builds every block's full rho^{ABE} from (I_A (x) V)|phi_x>, takes partial
    traces by einsum, assembles block-diagonal rho^{XAB}, rho^{XA}, rho^{XB}
    and the average rho^B, and uses no block-purity shortcut.
    """
    lift = np.kron(np.eye(d_a), vmat)
    xab, xa, xb, avg_b, probs = [], [], [], 0.0, []
    for p, amps in entries:
        psi = lift @ amps
        rho = np.outer(psi, psi.conj()).reshape(d_a * d_b, d_e, d_a * d_b, d_e)
        rho_ab = np.einsum("iaja->ij", rho)
        t = rho_ab.reshape(d_a, d_b, d_a, d_b)
        rho_a = np.einsum("abcb->ac", t)
        rho_b = np.einsum("abac->bc", t)
        xab.append(p * rho_ab)
        xa.append(p * rho_a)
        xb.append(p * rho_b)
        avg_b = avg_b + p * rho_b
        probs.append(p)
    h_x = _entropy(np.diag(np.asarray(probs, dtype=complex)))
    h_xab, h_xb = _entropy(_block_diag(xab)), _entropy(_block_diag(xb))
    h_b = _entropy(avg_b)
    return (
        _entropy(_block_diag(xa)) + h_b - h_xab,
        h_x + h_b - h_xb,
        h_xb - h_xab,
    )


class Region(Workload):
    """One op: build the state, then region constants, vertices and children.

    Random ensembles of 1-4 Haar-random letters go through dephasing:p,
    erasure:eps (d = 2, 3) and depolarizing (d = 2, 3); the mu-ensemble goes
    through dephasing and erasure, where closed forms give the exact answer.
    Entropics and the qlinalg eigensolves dominate, and matrix sizes and
    letter counts vary, so batching and per-state profiles show here.
    """

    PER_STRATUM = 24

    def __init__(self, rng: np.random.Generator):
        self.channel_args = (
            [("dephasing", float(p), 2) for p in rng.uniform(0.05, 0.95, 4)]
            + [("erasure", float(e), 2) for e in rng.uniform(0.05, 0.95, 4)]
            + [("erasure", float(e), 3) for e in rng.uniform(0.05, 0.95, 4)]
            + [("depolarizing", None, 2), ("depolarizing", None, 3)]
        )
        # Channel indices per channel kind; with 1-4 letters, 20 strata.
        kinds = ([0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12], [13])
        self.pool = []
        for channel_ids in kinds:
            for letters in (1, 2, 3, 4):
                for _ in range(self.PER_STRATUM):
                    c = int(rng.choice(channel_ids))
                    entries = random_entries(letters, self.channel_args[c][2], rng)
                    self.pool.append(("random", c, entries))
        for channel_ids in kinds[:2]:
            self.pool += [("mu", int(rng.choice(channel_ids)), float(rng.uniform(0.01, 0.5)))
                          for _ in range(self.PER_STRATUM)]

    def prepare(self) -> None:
        self.isometries = [channels.builtin_isometry(kind, param, d)
                           for kind, param, d in self.channel_args]

    def op(self, i: int):
        kind, c, data = self.pool[i]
        iso = self.isometries[c]
        if kind == "mu":
            ens = entropics.mu_ensemble(data)
        else:
            d = self.channel_args[c][2]
            ens = entropics.make_ensemble(data, d, d)
        sigma = entropics.channel_output_ensemble(ens, iso)
        region = regions.region_from_state(sigma)
        return region, regions.corner_points(region, E_MAX), regions.derive_children(sigma)

    @staticmethod
    def fingerprint(result):
        region, vertices, children = result
        return region, tuple(vertices), tuple(sorted(children.items()))

    def check(self, i: int, result) -> str:
        region, vertices, children = result
        kind, c, data = self.pool[i]
        got = (region.i_axb, region.i_xb, region.i_coh)
        if not all(regions.contains(region, v) for v in vertices):
            return WRONG
        if kind == "random":
            iso = self.isometries[c]
            want = dense_oracle(data, iso.matrix, self.channel_args[c][2],
                                iso.out_dim, iso.env_dim)
            return OK if all(map(close, got, want)) else WRONG
        name, param, _ = self.channel_args[c]
        mu = data
        if name == "dephasing":
            ce, ds = closedform.shor_ce_curve(param, mu), closedform.ds_curve(param, mu)
            want = (ce.c, ds.c, ds.q)
            cef = closedform.cef_curve(param, mu)
        else:
            ent = closedform.erasure_entropics(param, mu)
            want = (ent.i_axb, ent.i_xb, ent.i_coh)
            cef = closedform.erasure_cef_curve(param, mu)
        got_cef = children["CEF"]
        ok = all(map(close, got + (got_cef.c, got_cef.q, got_cef.e),
                     want + (cef.c, cef.q, cef.e)))
        return OK if ok else WRONG


# --------------------------------------------------------------------------
# check: one `cqekit check --suite all` invocation through cli.main
# --------------------------------------------------------------------------

class Check(Workload):
    """One op: `cqekit check --suite all --trials 3 --seed S` in-process.

    verify_identities calls all six entropic functions and dpi_check doubles
    the letter count, so entropics is used differently from `region`; this is
    also the only workload that measures the bounds layer.
    """

    TRIALS = 3
    POOL = 256

    def __init__(self, rng: np.random.Generator):
        self.pool = [int(s) for s in rng.integers(0, 2**31, self.POOL)]

    def op(self, i: int):
        argv = ["check", "--suite", "all", "--trials", str(self.TRIALS),
                "--seed", str(self.pool[i])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    fingerprint = staticmethod(digest)

    def check(self, i: int, result) -> str:
        code, text = result
        lines = text.splitlines()
        names = tuple(line.split(":", 1)[0] for line in lines)
        passed = all(line.split()[1] == "pass" for line in lines)
        return OK if code == 0 and names == CHECK_SUITES and passed else WRONG


# --------------------------------------------------------------------------
# curves: closed-form curve / compare commands through cli.main
# --------------------------------------------------------------------------

def _h_g(p: float, mu: float) -> float:
    """H2(g(p, mu)) with g = 1/2 + 1/2 sqrt(1 - 16 (p/2)(1 - p/2) mu (1 - mu))."""
    radicand = 1.0 - 16.0 * (p / 2.0) * (1.0 - p / 2.0) * mu * (1.0 - mu)
    return h2(0.5 + 0.5 * math.sqrt(max(radicand, 0.0)))


def _curve_row(curve: str, p: float, mu: float) -> tuple:
    h_mu, h_g = h2(mu), _h_g(p, mu)
    return {
        "ds": (1.0 - h_mu, h_mu - h_g, 0.0),
        "cef": (1.0 - h_mu, h_mu - 0.5 * h_g, 0.5 * h_g),
        "ce": (1.0 + h_mu - h_g, 0.0, h_mu),
    }[curve]


def _compare_row(channel: str, param: float, mu: float) -> tuple:
    lam = h2(mu)
    if channel == "dephasing":
        c, q, e = _curve_row("cef", param, mu)
        _, eaq_q, eaq_e = _curve_row("cef", param, 0.5)
    else:
        c, q, e = (1.0 - param) * (1.0 - lam), (1.0 - param) * lam, param * lam
        eaq_q, eaq_e = 1.0 - param, param
    return (mu, c, q, e, lam * eaq_q, lam * eaq_e, q - lam * eaq_q, lam * eaq_e - e)


class Curves(Workload):
    """One op: a `curve ds|cef|ce`, `compare --p` or `compare --channel
    erasure:eps` command, as CSV or JSON, with a 101-10001 point grid.

    Closed forms and cli formatting do all the work, with no eigensolve: the
    bypass workload for changes to the entropics and qlinalg layers.
    """

    COMMANDS = ("ds", "cef", "ce", "compare-p", "compare-erasure")
    FORMATS = ("csv", "json")
    STRATA = 42  # equal slices of log(grid size) over [101, 10001]

    def __init__(self, rng: np.random.Generator):
        # Cost grows with the grid, so every seed gets the same size ladder:
        # each stratum gives each command one slot of its own, and the seed
        # only moves a size inside its slot.  Sizes thus spread evenly over
        # the range, without the gaps between a few fixed sizes, and each
        # command and each stratum alternates between the two formats.  The
        # seed also draws p or eps and the rows that are checked.
        last = self.STRATA * len(self.COMMANDS) - 1
        self.pool = []
        for j in range(self.STRATA):
            for c, command in enumerate(self.COMMANDS):
                slot = j * len(self.COMMANDS) + c
                at = min(1.0, max(0.0, (slot + rng.uniform(-0.25, 0.25)) / last))
                self.pool.append((command, self.FORMATS[(c + j) % 2],
                                  float(rng.uniform(0.01, 0.99)),
                                  int(round(101 * (10001 / 101) ** at)),
                                  [int(k) for k in rng.integers(0, 10**9, 3)]))

    @staticmethod
    def argv(command: str, fmt: str, param: float, n: int) -> list[str]:
        grid = ["--grid", f"0:0.5:{n}", "--format", fmt]
        if command == "compare-p":
            return ["compare", "--p", repr(param)] + grid
        if command == "compare-erasure":
            return ["compare", "--channel", f"erasure:{param!r}"] + grid
        return ["curve", command, "--p", repr(param)] + grid

    def op(self, i: int):
        command, fmt, param, n, _ = self.pool[i]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(self.argv(command, fmt, param, n))
        return code, out.getvalue()

    fingerprint = staticmethod(digest)

    def check(self, i: int, result) -> str:
        command, fmt, param, n, picks = self.pool[i]
        code, text = result
        if code != 0:
            return WRONG
        is_curve = not command.startswith("compare")
        if fmt == "json":
            doc = json.loads(text)
            header_ok = doc["command"] == ("curve" if is_curve else "compare")
            bound = doc.get("solid_plane_bound")
            rows = doc["rows"]
        else:
            comments = [ln for ln in text.splitlines() if ln.startswith("#")]
            lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
            bound = comments[0].split("=", 1)[1] if comments else None
            table = list(csv.reader(lines))
            want = (["mu", "C", "Q", "E", "curve_name"] if is_curve
                    else ["mu", "C", "Q_cef", "E_cef", "Q_ts", "E_ts", "dQ", "dE"])
            header_ok, rows = table[0] == want, table[1:]
        if is_curve:
            header_ok = (header_ok and bound is not None
                         and close(float(bound), 2.0 - _h_g(param, 0.5))
                         and all(row[4] == CURVE_NAMES[command] for row in rows))
        if not header_ok or len(rows) != n:
            return WRONG
        mus = np.linspace(0.0, 0.5, n)
        for k in {0, n - 1, *(pick % n for pick in picks)}:
            mu = float(mus[k])
            if is_curve:
                want_row = (mu,) + _curve_row(command, param, mu)
                got_row = tuple(float(x) for x in rows[k][:4])
            else:
                channel = "dephasing" if command == "compare-p" else "erasure"
                want_row = _compare_row(channel, param, mu)
                got_row = tuple(float(x) for x in rows[k])
            if not all(map(close, got_row, want_row)):
                return WRONG
        return OK


# --------------------------------------------------------------------------
# union: membership queries against the time-sharing closure of regions
# --------------------------------------------------------------------------

def _violation(r, t) -> float:
    """Largest violated amount of the region's inequalities at t (<= 0 inside)."""
    c, q, e = t
    return max(-c, -q, -e, c + 2 * q - r.i_axb, q - r.i_coh - e,
               c + q - r.i_xb - r.i_coh - e)


class Union(Workload):
    """One op: `union_membership(regions, t, timeshare=True)` for one query.

    Five region sets of 2 to 6 regions are built in set-up.  Set k takes
    mu-ensembles with mu near the middle of each of n_k equal slices of
    [0, 1/2] through one dephasing channel, p near the middle of the k-th
    fifth of [0.1, 0.9].  Regions of one set trade C against Q, so none
    contains another and their hull is larger than their union.  A query's
    cost grows with the square of its set's size.  Query classes, with
    ground truth known by construction:

    * ``inside``: inside one region (the cheap, early-accept path);
    * ``hull-grid`` / ``hull-offgrid``: an exact mixture lam*v_i + (1-lam)*v_j
      of vertices of two different regions, rejection-sampled to lie in no
      single region, at a lambda on the library's 101-point grid or off it;
    * ``outside``: above every region's C + 2Q cap, so outside the hull.

    Every set gets the same number of queries of each class.  There is no
    record of how callers query, and each class takes its own path through
    union_membership: an early accept in contains, an accept part-way
    through the lambda-grid search, or a full search that ends in a reject.
    Equal counts weigh these paths alike, and the per-class outcomes printed
    with the run let a reader re-weigh success_rate.

    union_membership is a lambda-grid inner approximation, so an off-grid
    hull point it rejects is reported as a MISS (counted against
    success_rate) rather than hidden; any other wrong answer is WRONG.
    Because hull queries are chosen to lie in no single region, off-grid
    misses are far more common here than among plain off-grid vertex
    mixtures, most of which some single region already contains.
    regions.contains and corner_points run here with no eigensolve.
    """

    SET_SIZES = (2, 3, 4, 5, 6)
    GRID = np.linspace(0.0, 1.0, 101)  # union_membership's default lambda grid
    MARGIN = 1e-6
    CLASSES = ("inside", "hull-grid", "hull-offgrid", "outside")
    PER_CLASS = 24  # queries of each class per set

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        # How often the lambda grid misses depends on the regions' shapes, so
        # every seed gets the same ladder of p and mu, jittered slightly; the
        # seed mainly draws the queries.
        p_mid = np.linspace(0.1, 0.9, 2 * len(self.SET_SIZES) + 1)[1::2]
        self.specs = [
            (float(p + rng.uniform(-0.02, 0.02)),
             [float(mu + rng.uniform(-0.01, 0.01))
              for mu in np.linspace(0.0, 0.5, 2 * n + 1)[1::2]])
            for p, n in zip(p_mid, self.SET_SIZES)
        ]

    def prepare(self) -> None:
        self.sets, self.vertices = [], []
        for p, mus in self.specs:
            iso = channels.builtin_isometry("dephasing", p)
            rs = [regions.region_from_state(
                      entropics.channel_output_ensemble(entropics.mu_ensemble(mu), iso))
                  for mu in mus]
            self.sets.append(rs)
            self.vertices.append([[(v.c, v.q, v.e) for v in regions.corner_points(r, E_MAX)]
                                  for r in rs])

    def _inside(self, rs):
        rng = self.rng
        while True:
            r = rs[int(rng.integers(len(rs)))]
            t = (rng.uniform(0, r.i_axb), rng.uniform(0, r.i_axb / 2), rng.uniform(0, E_MAX))
            if _violation(r, t) < -self.MARGIN:
                return t

    def _hull(self, rs, verts, on_grid: bool):
        rng = self.rng
        while True:
            i, j = rng.choice(len(rs), 2, replace=False)
            vi = verts[i][int(rng.integers(len(verts[i])))]
            vj = verts[j][int(rng.integers(len(verts[j])))]
            if on_grid:
                lam = float(self.GRID[int(rng.integers(1, 100))])
            else:
                lam = float(rng.uniform(0.01, 0.99))
                if np.min(np.abs(self.GRID - lam)) < 1e-4:
                    continue
            t = tuple(lam * a + (1.0 - lam) * b for a, b in zip(vi, vj))
            if all(_violation(r, t) > self.MARGIN for r in rs):
                return t

    def _outside(self, rs, n: int):
        # A query's cost depends on where it lies, so the n-th outside query
        # of a set comes from the n-th cell of a 4 x 3 grid over (Q share of
        # the C + 2Q budget, E).
        rng = self.rng
        cap = max(r.i_axb for r in rs) * rng.uniform(1.01, 1.5)
        q = cap / 2 * (n % 4 + rng.random()) / 4
        return (cap - 2 * q, q, E_MAX * (n // 4 % 3 + rng.random()) / 3)

    def build_pool(self) -> None:
        make = {"inside": lambda rs, vs, n: self._inside(rs),
                "hull-grid": lambda rs, vs, n: self._hull(rs, vs, True),
                "hull-offgrid": lambda rs, vs, n: self._hull(rs, vs, False),
                "outside": lambda rs, vs, n: self._outside(rs, n)}
        self.pool = [
            (k, cls, regions.RateTriple(*make[cls](rs, verts, n)))
            for k, (rs, verts) in enumerate(zip(self.sets, self.vertices))
            for cls in self.CLASSES
            for n in range(self.PER_CLASS)
        ]

    def op(self, i: int):
        k, _, t = self.pool[i]
        return regions.union_membership(self.sets[k], t, timeshare=True)

    def label(self, i: int) -> str:
        return self.pool[i][1]

    def check(self, i: int, result) -> str:
        cls = self.pool[i][1]
        if result == (cls != "outside"):
            return OK
        return MISS if cls == "hull-offgrid" else WRONG


WORKLOADS = {"region": Region, "check": Check, "curves": Curves, "union": Union}


def make(name: str, seed: int):
    """The named workload with its inputs generated from `seed`."""
    return WORKLOADS[name](np.random.default_rng([seed % 2**64, 7919]))
