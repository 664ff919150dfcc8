"""Output checks for the benchmark's workloads.

Each check compares the program's output with a computation made here, in
plain Python, or with a property the method must have. Every function
returns a list of problems; an empty list means the output passed.
"""

import json
import math
import re
from fractions import Fraction

# --- reference sequences -------------------------------------------------------


def stirling2(p, k):
    """S(p, k) by the recurrence S(n, j) = j S(n-1, j) + S(n-1, j-1)."""
    row = [1]  # S(0, 0)
    for n in range(1, p + 1):
        row = [0] + [j * (row[j] if j < len(row) else 0) + row[j - 1] for j in range(1, n + 1)]
    return row[k]


def narayana(p, k):
    return math.comb(p, k) * math.comb(p, k - 1) // p


# --- moments ------------------------------------------------------------------

_TERM = re.compile(r"^(?:(\d+)\*)?\((\d+)/(\d+)\)\^d$")


def _split_top(text):
    """Split on ' + ' outside parentheses."""
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text.startswith(" + ", i):
            parts.append(text[start:i])
            start = i + 3
    parts.append(text[start:])
    return [p for p in parts if p]


def parse_symbolic(text, p):
    """Parse the printed expansion into {power of b: [(volume, multiplicity)]}.

    The printed form is a sum over powers of b; each coefficient is a sum of
    an integer (the unit-volume paths) and terms ``m*(a/c)^d``.
    """
    out = {}
    for piece in _split_top(text):
        coeff, power = piece, 0
        m = re.fullmatch(r"(?:(.*) )?b(?:\^(\d+))?", piece)
        if m:
            coeff = m.group(1) or "1"
            power = int(m.group(2) or 1)
        if coeff.startswith("(") and coeff.endswith(")"):
            coeff = coeff[1:-1]
        terms = []
        for part in _split_top(coeff):
            if part.isdigit():
                terms.append((Fraction(1), int(part)))
                continue
            t = _TERM.match(part)
            if t is None:
                raise ValueError(f"unreadable term {part!r} in {piece!r}")
            terms.append((Fraction(int(t.group(2)), int(t.group(3))), int(t.group(1) or 1)))
        if power in out or not 0 <= power < p:
            raise ValueError(f"power {power} repeated or out of range")
        out[power] = terms
    return out


def check_moments(output, p, ds, betas):
    """Check a ``moments --format json`` document against its own expansion."""
    doc = json.loads(output)
    problems = []
    if doc["columns"] != ["p", "d", "beta", "moment", "limit_moment"]:
        return [f"unexpected columns {doc['columns']}"]
    try:
        expansion = parse_symbolic(doc[f"symbolic p={p}"], p)
    except (KeyError, ValueError) as exc:
        return [f"symbolic expansion: {exc}"]
    if sorted(expansion) != list(range(p)):
        problems.append(f"powers of b {sorted(expansion)} are not 0..{p - 1}")
    for power, terms in expansion.items():
        k = p - power
        total = sum(m for _, m in terms)
        if total != stirling2(p, k):
            problems.append(f"k={k}: multiplicities sum to {total}, "
                            f"S({p},{k}) = {stirling2(p, k)}")
        unit = sum(m for v, m in terms if v == 1)
        if unit != narayana(p, k):
            problems.append(f"k={k}: unit-volume part {unit}, N({p},{k}) = {narayana(p, k)}")
        for v, m in terms:
            if v != 1 and not 0 < v <= Fraction(2, 3):
                problems.append(f"k={k}: crossing volume {v} outside (0, 2/3]")

    rows = doc["rows"]
    expected_keys = [(p, d, b) for d in ds for b in betas]
    if [(r[0], r[1], r[2]) for r in rows] != expected_keys:
        return problems + ["rows do not cover the requested (p, d, beta) grid"]
    by_key = {}
    for _, d, beta, moment, limit in rows:
        b = Fraction(beta)
        narayana_poly = sum(narayana(p, k) * b ** (p - k) for k in range(1, p + 1))
        if not math.isclose(limit, narayana_poly, rel_tol=1e-12):
            problems.append(f"d={d} beta={beta}: limit_moment {limit} "
                            f"!= Narayana {float(narayana_poly)}")
        own = sum(m * v**d * b**power for power, terms in expansion.items() for v, m in terms)
        if not math.isclose(moment, own, rel_tol=1e-12):
            problems.append(f"d={d} beta={beta}: moment {moment} != expansion {float(own)}")
        by_key[d, beta] = (moment, limit)
    for beta in betas:
        chain = [by_key[d, beta][0] for d in sorted(ds)] + [by_key[ds[0], beta][1]]
        if any(a <= b for a, b in zip(chain, chain[1:])):
            problems.append(f"beta={beta}: moments {chain[:-1]} do not fall strictly "
                            f"towards the limit {chain[-1]}")
    return problems


# --- mse ------------------------------------------------------------------------


def mp_quadrature(beta, alpha, nodes=400):
    """Integral of alpha beta / (x + alpha beta) against the MP density.

    With x = c2 + (c1 - c2) sin^2 t the integrand is smooth on [0, pi/2] and
    vanishes with all odd derivatives at both ends, so the midpoint rule
    converges faster than any power of the node count.
    """
    root = math.sqrt(beta)
    c1, c2 = (1 + root) ** 2, (1 - root) ** 2
    span, h = c1 - c2, (math.pi / 2) / nodes
    shift = alpha * beta
    total = 0.0
    for i in range(nodes):
        t = (i + 0.5) * h
        x = c2 + span * math.sin(t) ** 2
        density_dx = span**2 * math.sin(2 * t) ** 2 / (4 * math.pi * beta * x)
        total += shift / (x + shift) * density_dx
    return total * h


MSE_COLUMNS = ["d", "M", "r", "beta", "snr_db", "mse_mp", "mse_empirical", "stderr",
               "trials", "seed"]


def check_mse(output, d, M, betas, snrs, trials, seed, gap_limits):
    """Check an ``mse --format json`` document for one d.

    ``gap_limits`` maps each requested beta to the largest allowed
    |mse_empirical - mse_mp| over the SNR grid.
    """
    doc = json.loads(output)
    if doc["columns"] != MSE_COLUMNS:
        return [f"unexpected columns {doc['columns']}"]
    rows = doc["rows"]
    if len(rows) != len(betas) * len(snrs):
        return [f"{len(rows)} rows, expected {len(betas) * len(snrs)}"]
    problems = []
    n = (2 * M + 1) ** d
    for i, beta_req in enumerate(betas):
        block = rows[i * len(snrs):(i + 1) * len(snrs)]
        r_expected = max(round(n / beta_req), n + 1)
        gap = 0.0
        for row in block:
            rd, rM, r, beta, snr, mse_mp, mse_emp, _, rtrials, rseed = row
            where = f"beta={beta_req} snr={snr}"
            if (rd, rM, rtrials, rseed) != (d, M, trials, seed):
                problems.append(f"{where}: row echoes {(rd, rM, rtrials, rseed)}")
            if r != r_expected:
                problems.append(f"{where}: r={r}, expected max(round(N/beta), N+1) = {r_expected}")
            if beta != n / r:
                problems.append(f"{where}: beta {beta} is not N/r = {n / r}")
            alpha = 10.0 ** (-snr / 10.0)
            own = mp_quadrature(beta, alpha)
            if not abs(mse_mp - own) <= 1e-9:
                problems.append(f"{where}: mse_mp {mse_mp} != quadrature {own}")
            jensen = alpha * beta / (1 + alpha * beta)
            if not jensen - 1e-9 <= mse_emp <= 1:
                problems.append(f"{where}: mse_empirical {mse_emp} outside [{jensen}, 1]")
            gap = max(gap, abs(mse_emp - mse_mp))
        if [row[4] for row in block] != list(snrs):
            problems.append(f"beta={beta_req}: SNR column {[row[4] for row in block]}")
        emp = [row[6] for row in block]
        if any(a <= b for a, b in zip(emp, emp[1:])):
            problems.append(f"beta={beta_req}: mse_empirical {emp} does not fall as SNR rises")
        if not gap < gap_limits[beta_req]:
            problems.append(f"beta={beta_req}: gap to MP {gap:.4f} over {gap_limits[beta_req]}")
    return problems


# --- reconstruction ----------------------------------------------------------------


def check_reconstruct(mses, mu, alpha, sigmas=4.0):
    """Mean per-draw MSE against its exact expectation given G.

    The LMMSE error of one draw is e = (G G* + alpha I)^(-1) (G n - alpha a),
    whose covariance is alpha (G G* + alpha I)^(-1). So ||e||^2 / N is
    (1/N) sum_i w_i |z_i|^2 with w_i = alpha / (mu_i + alpha) and |z_i|^2
    unit exponentials: its mean is (1/N) sum w_i and its variance
    (1/N^2) sum w_i^2. The standard error of the mean of K draws follows.
    """
    n = len(mu)
    w = [alpha / (max(m, 0.0) + alpha) for m in mu]
    expected = sum(w) / n
    stderr = math.sqrt(sum(x * x for x in w) / len(mses)) / n
    mean = sum(mses) / len(mses)
    if not abs(mean - expected) <= sigmas * stderr:
        return [f"mean MSE {mean} is {abs(mean - expected) / stderr:.2f} standard errors "
                f"from (1/N) sum alpha/(mu+alpha) = {expected}"]
    return []
