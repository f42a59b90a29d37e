"""Independent correctness oracles for the benchmark's job outputs.

Each check reads what a job wrote (its JSON/CSV artifacts) and recomputes
the claim with code of its own: the dispersion function, the closed-form
radii, Bessel zeros from ``scipy.special``, and a Bloch pencil folded here
and factored by SuperLU, whose negative pivots count the eigenvalues below a
shift (Sylvester inertia).  Nothing here calls the package's design code or
eigensolvers; the band checks take only the cell graph from its builder.

``Checker.check`` returns one verdict per operation of a job: ``None`` for a
pass, else the reason it failed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.optimize import brentq
from scipy.special import jv

from gapforge.bands import GridSpec, build_cell_graph

SIGMA_RTOL = 1e-12
MU_RTOL = 1e-9
BRACKET = 1e-9
INERTIA_SHIFT = 1e-9
TRIVIAL_ATOL = 1e-10
CONJUGATE_RTOL = 1e-8
LJ_RTOL = 1e-5
LIMIT_RTOL = 0.05
FLUX_TOL = 0.01
KAPPA = 0.5  # RunConfig default; the workloads do not set kappa

# Documented demo cell: resonance predicted by the radial solver and the
# m = 1 upper edge sigma (1 + rho); remake with `python3 perfbench/reference.py`.
DEMO_SIGMA = 1.2616125549991928
DEMO_MU = 2.688462739405553
DEMO_LOWER_TOL = 0.10
DEMO_UPPER_TOL = 0.30

# Operations that fail on every run because of a known fault: theta_spectrum
# drops one copy of a double eigenvalue at these characters of the demo cell.
KNOWN_FAULTS = frozenset({("band-sweep", "demo#0,0"), ("band-sweep", "demo#2,2")})


@dataclass
class JobResult:
    exit_code: int | None
    error: str | None
    files: dict[str, str]


def sphere_measure(k: int) -> float:
    """Volume of the unit k-sphere; the oracles keep their own copy."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def rel_err(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref)


# ---------------------------------------------------------------------------
# design layer: closed forms and the dispersion function


def closed_form_rho(intervals: list[list[float]]) -> list[float]:
    """rho_j = (b_j - a_j)/a_j * prod_{i != j} (b_i - a_j)/(a_i - a_j)."""
    out = []
    for j, (aj, bj) in enumerate(intervals):
        p = (bj - aj) / aj
        for i, (ai, bi) in enumerate(intervals):
            if i != j:
                p *= (bi - aj) / (ai - aj)
        out.append(p)
    return out


def bubble_radius(intervals: list[list[float]], n: int, j: int) -> float:
    """b_j = [(beta_j - alpha_j) P_j / (omega_n alpha_j)]^(1/n)."""
    return (closed_form_rho(intervals)[j] / sphere_measure(n)) ** (1.0 / n)


def dispersion_F(sigma, rho, lam: float) -> tuple[float, float]:
    """F(lambda) = 1 + sum sigma rho / (sigma - lambda), and the sum of the
    magnitudes of its terms (the scale of its rounding error)."""
    total, scale = 1.0, 1.0
    for s, r in zip(sigma, rho):
        term = s * r / (s - lam)
        total += term
        scale += abs(term)
    return total, scale


def model_problems(intervals, sigma, rho, mu) -> list[str]:
    """sigma_j = alpha_j, mu_j = beta_j, each mu_j a sign change of F, and
    mu = sigma (1 + rho) when m = 1."""
    out = []
    alphas = [a for a, _ in intervals]
    betas = [b for _, b in intervals]
    if not (len(sigma) == len(rho) == len(mu) == len(intervals)):
        return [f"model has {len(sigma)} channels for {len(intervals)} targets"]
    for j, (s, a) in enumerate(zip(sigma, alphas)):
        if rel_err(s, a) > SIGMA_RTOL:
            out.append(f"sigma[{j}]={s!r} vs alpha={a!r}")
    for j, (m, b) in enumerate(zip(mu, betas)):
        if rel_err(m, b) > MU_RTOL:
            out.append(f"mu[{j}]={m!r} vs beta={b!r}")
        below, _ = dispersion_F(sigma, rho, m * (1.0 - BRACKET))
        above, _ = dispersion_F(sigma, rho, m * (1.0 + BRACKET))
        if not (below < 0.0 < above):
            out.append(f"mu[{j}]={m!r} is not bracketed: F={below!r}, {above!r}")
    if len(sigma) == 1 and rel_err(mu[0], sigma[0] * (1.0 + rho[0])) > SIGMA_RTOL:
        out.append(f"m=1: mu={mu[0]!r} vs sigma(1+rho)={sigma[0] * (1.0 + rho[0])!r}")
    return out


def _check_design(job, result: JobResult, models: dict) -> list[str]:
    doc = json.loads(result.files["design.json"])
    intervals = job.config["intervals"]
    model = doc["model"]
    problems = model_problems(intervals, model["sigma"], model["rho"], doc["mu"])
    if not problems:
        models[job.meta["spec"]] = (model["sigma"], model["rho"], doc["mu"])
    return problems


def _check_limit_spectrum(job, result: JobResult, models: dict) -> list[str]:
    doc = json.loads(result.files["limit_spectrum.json"])
    model = doc["model"]
    sigma, mu = model["sigma"], model["mu"]
    problems = model_problems(job.config["intervals"], sigma, model["rho"], mu)
    if doc["gaps"] != [[s, m] for s, m in zip(sigma, mu)]:
        problems.append(f"gaps {doc['gaps']} differ from (sigma, mu)")
    edges = [0.0] + [x for s, m in zip(sigma, mu) for x in (s, m)] + [doc["L"]]
    if doc["bands"] != [edges[i:i + 2] for i in range(0, len(edges), 2)]:
        problems.append(f"bands {doc['bands']} are not the complement of the gaps")
    return problems


def _check_verify(job, result: JobResult, models: dict) -> list[str]:
    doc = json.loads(result.files["verify.json"])
    problems = []
    if result.exit_code != 0 or doc["status"] != "pass":
        problems.append(f"verify exit {result.exit_code}, status {doc['status']}")
    return problems


def _check_dispersion(job, result: JobResult, models: dict) -> list[str]:
    spec = job.meta["spec"]
    if spec not in models:
        return [f"no checked design model for {spec}"]
    sigma, rho, mu = models[spec]
    rows = list(csv.reader(io.StringIO(result.files["dispersion.csv"])))
    if rows[0] != ["lambda", "value", "pole_adjacent"]:
        return [f"bad header {rows[0]}"]
    rows = rows[1:]
    problems = []
    top = 1.5 * mu[-1]
    if len(rows) != 257 or float(rows[0][0]) != 0.0 or rel_err(float(rows[-1][0]), top) > SIGMA_RTOL:
        problems.append(f"sample grid is not 257 points on [0, {top!r}]")
    for lam_s, val_s, flag_s in rows:
        lam = float(lam_s)
        near = any(abs(lam - s) < 1e-6 for s in sigma)
        if (flag_s == "1") != near:
            problems.append(f"pole flag {flag_s} at lambda={lam!r}")
            continue
        if near:
            continue
        F, scale = dispersion_F(sigma, rho, lam)
        if abs(float(val_s) - lam * F) > 1e-12 * abs(lam) * scale + 1e-300:
            problems.append(f"value {val_s} at lambda={lam!r}, expected {lam * F!r}")
    return problems[:3]


# ---------------------------------------------------------------------------
# cell layer: reference limits and convergence


def bessel_zero(nu: float) -> float:
    """First positive zero of J_nu, for 0 <= nu <= 1 (inside [2, 4.5])."""
    return brentq(lambda x: jv(nu, x), 2.0, 4.5, xtol=1e-15, rtol=1e-15)


def lj_lambda2(intervals, n: int, j: int) -> float:
    """min(j_{n/2-1,1}^2 / (kappa/2)^2, n / b_j^2)."""
    disk = (bessel_zero(0.5 * n - 1.0) / (0.5 * KAPPA)) ** 2
    b = bubble_radius(intervals, n, j)
    return min(disk, n / (b * b))


def _check_convergence(job, result: JobResult, models: dict) -> list[str]:
    cfg = job.config
    n, j, intervals = cfg["n"], cfg["channel"], cfg["intervals"]
    rows = list(csv.DictReader(io.StringIO(result.files["convergence.csv"])))
    problems = []
    eps = [float(r["eps"]) for r in rows]
    if eps != cfg["eps_list"]:
        return [f"eps column {eps} differs from the ladder {cfg['eps_list']}"]
    sigma = intervals[j][0]
    ref = lj_lambda2(intervals, n, j)
    errs = []
    for r in rows:
        e, lam1, lam2 = float(r["eps"]), float(r["lambda1"]), float(r["lambda2"])
        if rel_err(float(r["sigma_target"]), sigma) > SIGMA_RTOL:
            problems.append(f"sigma_target {r['sigma_target']} vs alpha {sigma!r}")
        if not lam1 <= float(r["rayleigh_upper"]):
            problems.append(f"eps={e}: lambda1={lam1!r} above the Rayleigh bound {r['rayleigh_upper']}")
        if rel_err(float(r["Lj_lambda2"]), ref) > LJ_RTOL:
            problems.append(f"Lj_lambda2 {r['Lj_lambda2']} vs {ref!r}")
        if rel_err(float(r["eps2_lambda2"]), e * e * lam2) > SIGMA_RTOL:
            problems.append(f"eps={e}: eps2_lambda2 is not eps^2 lambda2")
        errs.append(abs(lam1 - sigma) / sigma)
    last = rows[-1]
    if rel_err(float(last["eps2_lambda2"]), ref) > LIMIT_RTOL:
        problems.append(f"eps^2 lambda2={last['eps2_lambda2']} not within 5% of {ref!r}")
    if n == 4:
        # not monotone at n = 4 (3.0e-5 then 5.4e-5 at eps 0.05, 0.025)
        for e, err in zip(eps, errs):
            if err > e * e:
                problems.append(f"eps={e}: |lambda1-sigma|/sigma={err:.3e} > eps^2")
    elif any(b >= a for a, b in zip(errs, errs[1:])):
        problems.append(f"|lambda1-sigma| does not shrink: {errs}")
    return problems


def _check_cell_eigs(job, result: JobResult, models: dict) -> list[str]:
    cfg = job.config
    n, j, intervals = cfg["n"], cfg["channel"], cfg["intervals"]
    doc = json.loads(result.files["cell_eigs.json"])
    lam = doc["eigenvalues"]
    problems = []
    if len(lam) != cfg["num_eigs"]:
        problems.append(f"{len(lam)} eigenvalues for num_eigs={cfg['num_eigs']}")
    # the zonal spectrum of a 1-D Sturm-Liouville problem is simple
    if any(b <= a for a, b in zip(lam, lam[1:])):
        problems.append("eigenvalues are not strictly increasing")
    # the raw discrete lambda1 approaches from above; the bound holds for the mesh limit
    if not doc["lambda1_mesh_limit"] <= doc["rayleigh_upper"]:
        problems.append(f"lambda1 mesh limit {doc['lambda1_mesh_limit']!r} above the Rayleigh bound"
                        f" {doc['rayleigh_upper']!r}")
    if abs(doc["flux_ratio"] - 1.0) > FLUX_TOL:
        problems.append(f"flux ratio {doc['flux_ratio']!r} not within 1% of 1")
    ref = lj_lambda2(intervals, n, j)
    if rel_err(doc["eps"] ** 2 * lam[1], ref) > LIMIT_RTOL:
        problems.append(f"eps^2 lambda2={doc['eps'] ** 2 * lam[1]!r} not within 5% of {ref!r}")
    if rel_err(doc["sigma_target"], intervals[j][0]) > SIGMA_RTOL:
        problems.append(f"sigma_target {doc['sigma_target']!r} vs alpha {intervals[j][0]!r}")
    return problems


# ---------------------------------------------------------------------------
# bands layer: an independent Bloch pencil and its inertia


def bloch_pencil(graph, theta) -> tuple[sp.csc_matrix, np.ndarray]:
    """Stiffness K and diagonal mass M of the theta-periodic problem,
    folded here: vertices identified by the boundary pairs form classes,
    u(b) = conj(theta_d) u(a) fixes each vertex's phase against its class
    root (weighted union-find), and K = P^H L P with L the unfolded graph
    Laplacian and P the vertex <- class map with those phases."""
    nv = len(graph.masses)
    parent = list(range(nv))
    phase = [1.0 + 0.0j] * nv  # u(v) = phase[v] * u(parent[v])

    def find(v):
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        # compress: fold phases from the root outward
        for u in reversed(path):
            if parent[u] != v:
                phase[u] *= phase[parent[u]]
                parent[u] = v
        return v

    for a, b, d in graph.boundary_pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            # u(b) = conj(theta_d) u(a) = conj(theta_d) phase[a] u(ra)
            parent[rb] = ra
            phase[rb] = np.conj(theta[d - 1]) * phase[a] / phase[b]
    roots = np.array([find(v) for v in range(nv)])
    ph = np.array(phase)
    _, col = np.unique(roots, return_inverse=True)
    dim = int(col.max()) + 1
    P = sp.csr_matrix((ph, (np.arange(nv), col)), shape=(nv, dim))
    a, b = graph.edges[:, 0], graph.edges[:, 1]
    w = graph.weights
    L = sp.coo_matrix(
        (np.concatenate([w, w, -w, -w]), (np.concatenate([a, b, a, b]), np.concatenate([a, b, b, a]))),
        shape=(nv, nv),
    ).tocsr()
    K = (P.conj().T @ L @ P).tocsc()
    K = ((K + K.conj().T) * 0.5).tocsc()
    M = np.bincount(col, weights=graph.masses, minlength=dim)
    return K, M


def count_below(K: sp.csc_matrix, M: np.ndarray, shift: float) -> int:
    """Number of pencil eigenvalues below ``shift``: negative pivots of a
    symmetric-ordered LDL^H of K - shift*M (Sylvester's law of inertia)."""
    A = (K - shift * sp.diags(M)).tocsc()
    lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise RuntimeError("factorization pivoted off the diagonal; inertia is not defined")
    return int(np.count_nonzero(lu.U.diagonal().real < 0.0))


def inertia_problem(K, M, lam: np.ndarray) -> str | None:
    """The k reported eigenvalues are the k smallest iff fewer than k lie
    below lambda_k(1 - tau) and at least k below lambda_k(1 + tau)."""
    k, top = len(lam), float(lam[-1])
    below = count_below(K, M, top * (1.0 - INERTIA_SHIFT))
    upto = count_below(K, M, top * (1.0 + INERTIA_SHIFT))
    if below < k <= upto:
        return None
    return f"inertia: {below} eigenvalues below lambda_{k}(1-tau), {upto} below lambda_{k}(1+tau)"


class CellGraphs:
    """Each band job's cell graph, built once from the job's config."""

    def __init__(self):
        self._graphs = {}

    def get(self, job):
        if job.key not in self._graphs:
            cfg = job.config
            self._graphs[job.key] = build_cell_graph(
                holes=[tuple(h) for h in cfg["holes"]], cell_size=1.0,
                grid=GridSpec(cfg["base_resolution"]),
            )
        return self._graphs[job.key]


def read_band_table(text: str, res: int, k: int) -> dict[tuple[int, int], np.ndarray]:
    """bands.csv -> {(p1, p2): ascending eigenvalues}; theta_d = exp(2 pi i p_d / res)."""
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["theta_index", "theta_1", "theta_2", "k", "lambda"]:
        raise ValueError(f"bad header {rows[0]}")
    table: dict[tuple[int, int], list[float]] = {}
    for ti, t1, t2, kk, lam in rows[1:]:
        p = tuple(round(float(t) * res / (2 * math.pi)) % res for t in (t1, t2))
        if int(ti) != p[0] * res + p[1]:
            raise ValueError(f"row {ti} holds character {p}")
        table.setdefault(p, []).append(float(lam))
    if len(table) != res * res or any(len(v) != k for v in table.values()):
        raise ValueError("band table is not a full character grid")
    return {p: np.asarray(v) for p, v in table.items()}


def demo_gap_problem(gaps) -> str | None:
    """The demo cell's first gap against the documented predictions: 10% on
    the lower edge, 30% on the upper."""
    if not gaps:
        return "no gap detected on the demo cell"
    lo, hi = gaps[0]
    if rel_err(lo, DEMO_SIGMA) > DEMO_LOWER_TOL or rel_err(hi, DEMO_MU) > DEMO_UPPER_TOL:
        return f"demo gap ({lo}, {hi}) outside 10%/30% of ({DEMO_SIGMA}, {DEMO_MU})"
    return None


def check_bands(job, result: JobResult, graphs: CellGraphs, workload: str) -> list[str | None]:
    """Per character: the inertia count, the trivial-character ground state
    and lambda(theta) = lambda(conj theta).  Per job: bands.json agrees with
    the table, and on the demo cell the documented gap tolerances."""
    cfg = job.config
    res, k = cfg["theta_grid"], cfg["num_bands"]
    table = read_band_table(result.files["bands.csv"], res, k)
    doc = json.loads(result.files["bands.json"])
    job_problems = []
    cols = np.vstack([table[(p1, p2)] for p1 in range(res) for p2 in range(res)])
    if doc["bands"] != [[float(c.min()), float(c.max())] for c in cols.T]:
        job_problems.append("bands.json bands are not the per-k extremes of bands.csv")
    if job.key == "demo" and workload == "band-sweep":
        problem = demo_gap_problem(doc["gaps"])
        if problem:
            job_problems.append(problem)
    verdicts = []
    for p1 in range(res):
        for p2 in range(res):
            lam = table[(p1, p2)]
            problems = list(job_problems)
            if np.any(np.diff(lam) < 0.0):
                problems.append("eigenvalues not ascending")
            if (p1, p2) == (0, 0) and abs(lam[0]) >= TRIVIAL_ATOL:
                problems.append(f"trivial character lambda1={lam[0]!r}")
            mirror = table[((-p1) % res, (-p2) % res)]
            if np.any(np.abs(lam - mirror) > CONJUGATE_RTOL * np.maximum(1.0, np.abs(lam))):
                problems.append("lambda(theta) != lambda(conj theta)")
            theta = [np.exp(2j * math.pi * p / res) for p in (p1, p2)]
            K, M = bloch_pencil(graphs.get(job), theta)
            inertia = inertia_problem(K, M, lam)
            if inertia:
                problems.append(inertia)
            verdicts.append("; ".join(problems) or None)
    return verdicts


def op_keys(job) -> list[str]:
    if job.kind != "bands":
        return [job.key]
    res = job.config["theta_grid"]
    return [f"{job.key}#{p1},{p2}" for p1 in range(res) for p2 in range(res)]


_CHECKERS = {
    "design": _check_design,
    "limit-spectrum": _check_limit_spectrum,
    "verify": _check_verify,
    "dispersion": _check_dispersion,
    "convergence": _check_convergence,
    "cell-eigs": _check_cell_eigs,
}


class Checker:
    """Checks the outputs of one workload's jobs.  Design models that passed
    are remembered for the spec's ``dispersion`` job."""

    def __init__(self, workload: str):
        self.workload = workload
        self.graphs = CellGraphs()
        self.models: dict = {}

    def check(self, job, result: JobResult) -> list[str | None]:
        if result.error is not None:
            return [result.error] * job.ops
        try:
            if job.kind == "bands":
                return check_bands(job, result, self.graphs, self.workload)
            return ["; ".join(_CHECKERS[job.kind](job, result, self.models)) or None]
        except (KeyError, ValueError, IndexError, RuntimeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"] * job.ops

    def is_known_fault(self, op_key: str) -> bool:
        return (self.workload, op_key) in KNOWN_FAULTS
