"""Independent reference implementations used as test oracles.

Everything here is deliberately written from the defining formulas with
plain loops or brute-force search, not by calling the package code, so
that agreement is evidence and not tautology.
"""

import csv
import math

import numpy as np
from scipy import stats
from scipy.special import ndtr

from markerscreen.errors import ParseError
from markerscreen.lr import MixtureFit


def pooled_normal_oracle(x):
    """Mean, MLE variance, and exact normal log-likelihood by direct sums."""
    x = list(map(float, x))
    n = len(x)
    mu = sum(x) / n
    s2 = sum((v - mu) ** 2 for v in x) / n
    ll = sum(
        -0.5 * math.log(2.0 * math.pi * s2) - (v - mu) ** 2 / (2.0 * s2)
        for v in x
    )
    return mu, s2, ll


def mixture_loglik_oracle(x, w1, mu1, mu2, s21, s22):
    """Observed-data two-component normal mixture log-likelihood."""
    w2 = 1.0 - w1
    total = 0.0
    for v in x:
        a = w1 * math.exp(-((v - mu1) ** 2) / (2 * s21)) / math.sqrt(2 * math.pi * s21)
        b = w2 * math.exp(-((v - mu2) ** 2) / (2 * s22)) / math.sqrt(2 * math.pi * s22)
        total += math.log(a + b)
    return total


def grid_best_mixture_loglik(x, n1, mean_pts=21, var_pts=17):
    """Brute-force lattice search over (mu1, mu2, s21, s22).

    Means span [min(x), max(x)]; variances are log-spaced over the
    non-degenerate region [5e-2 * pooled, 1.5 * range^2]. Mixing weights
    are the design proportions. Returns the best lattice log-likelihood.

    The lower edge must stay well above the estimator's numerical
    variance guard: lattice points that park one component on a data
    extreme (or on a tight pair of points) with near-zero variance are
    likelihood spikes, nats above any interior optimum, and no
    reasonable fit chases them. The search is only meaningful against
    samples with genuine two-group separation, where the identified
    optimum dominates every spike.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    w1 = n1 / n
    lo, hi = float(x.min()), float(x.max())
    span = hi - lo
    if span <= 0:
        raise ValueError("degenerate sample")
    means = np.linspace(lo, hi, mean_pts)
    pooled_var = float(x.var())
    v_lo = max(5e-2 * pooled_var, 1e-12)
    v_hi = 1.5 * span ** 2
    variances = np.geomspace(v_lo, v_hi, var_pts)

    # component densities for every (mean, variance) lattice point: (M, V, N)
    z2 = (x[None, None, :] - means[:, None, None]) ** 2 / variances[None, :, None]
    log_norm = -0.5 * np.log(2.0 * np.pi * variances)[None, :, None]
    log_f = log_norm - 0.5 * z2
    f = np.exp(log_f)

    best = -np.inf
    flat = f.reshape(-1, n)  # (M*V, N)
    a = w1 * flat
    b = (1.0 - w1) * flat
    with np.errstate(divide="ignore"):
        for i in range(flat.shape[0]):
            # underflowed lattice corners give -inf and drop out of the max
            ll = np.log(a[i][None, :] + b).sum(axis=1)
            m = ll.max()
            if m > best:
                best = m
    return float(best)


def welch_oracle(a, b):
    """Welch t statistic, Welch-Satterthwaite df, two-sided p; direct formula."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    n1, n2 = a.size, b.size
    v1 = a.var(ddof=1)
    v2 = b.var(ddof=1)
    se2 = v1 / n1 + v2 / n2
    t = (a.mean() - b.mean()) / math.sqrt(se2)
    df = se2 ** 2 / ((v1 / n1) ** 2 / (n1 - 1) + (v2 / n2) ** 2 / (n2 - 1))
    p = 2.0 * stats.t.sf(abs(t), df)
    return t, df, p


def normal_cdf(z):
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def kernel_cdf_oracle(centers, h, t):
    """Mean of normal CDFs centered at the observations, by scalar loop."""
    return sum(normal_cdf((t - c) / h) for c in centers) / len(centers)


def bandwidth_oracle(x):
    x = np.asarray(x, float)
    s = float(np.std(x, ddof=1))
    q75, q25 = np.percentile(x, [75, 25])
    iqr = float(q75 - q25)
    scale = min(s, iqr / 1.349) if iqr > 0 else s
    return 1.06 * scale * x.size ** (-0.2)


def ks_d_oracle(x):
    """Max gap between kernel CDF and fitted normal CDF at observed points."""
    x = np.asarray(x, float)
    h = bandwidth_oracle(x)
    mu = float(x.mean())
    sd = float(x.std())  # MLE scale, matching the pooled-normal fit
    best = 0.0
    for t in x:
        g = kernel_cdf_oracle(x, h, float(t))
        fval = normal_cdf((float(t) - mu) / sd)
        best = max(best, abs(g - fval))
    return best


def ks_kernel_mean_reference(rows):
    """(d, h, s) of each (m, N) row through the full (rows, N^2) kernel.

    Each row is sorted; Phi is evaluated once per pair i < k, mirrored as
    1 - Phi and set to 0.5 on the diagonal, and each kernel row is averaged
    by numpy. The moments are numpy's row sums and the IQR is np.percentile's.
    Flat rows get d = h = 0; rows whose s overflows get d = h = NaN.
    """
    xs = np.sort(np.asarray(rows, dtype=float), axis=1)
    N = xs.shape[1]
    dev = xs - xs.sum(axis=1, keepdims=True) / N
    ss = np.square(dev).sum(axis=1)
    s = np.sqrt(ss / (N - 1))
    d = np.where(np.isfinite(s), 0.0, np.nan)
    h = d.copy()
    scored = np.isfinite(s) & (s != 0.0)
    xs, dev, ss = xs[scored], dev[scored], ss[scored]
    q75, q25 = np.percentile(xs, [75, 25], axis=1)
    iqr = q75 - q25
    scale = np.where(iqr > 0, np.minimum(s[scored], iqr / 1.349), s[scored])
    h[scored] = h_scored = 1.06 * scale * N ** (-1.0 / 5.0)
    i, k = np.triu_indices(N, 1)
    z = ndtr((xs[:, i] - xs[:, k]) / h_scored[:, None])
    kernel = np.empty((len(xs), N * N))
    kernel[:, i * N + k] = z
    kernel[:, k * N + i] = 1.0 - z
    kernel[:, ::N + 1] = 0.5
    g = kernel.reshape(-1, N, N).mean(axis=2)
    f = ndtr(dev / np.sqrt(ss / N)[:, None])
    d[scored] = np.abs(g - f).max(axis=1)
    return d, h, s


def bh_oracle(pvals, q):
    """Benjamini-Hochberg step-up; returns the boolean keep mask."""
    p = np.asarray(pvals, float)
    m = p.size
    order = np.argsort(p, kind="stable")
    keep_k = 0
    for rank, idx in enumerate(order, start=1):
        if p[idx] <= rank * q / m:
            keep_k = rank
    mask = np.zeros(m, dtype=bool)
    mask[order[:keep_k]] = True
    return mask


# Selection over plain (protein_id, value, p_value) rows, by sorting lists:
# the ranking semantics the package's columnar selection must reproduce.

PREVIEW_SIZE = 100


def _ranked_rows(rows):
    """Descending value, protein id as the tie-break."""
    return sorted(rows, key=lambda r: (-r[1], r[0]))


def _selection(ranked, chosen, cutoff):
    preview = tuple((v, pid) for pid, v, _ in ranked[:PREVIEW_SIZE])
    return tuple(chosen), float(cutoff), preview


def fixed_selection_oracle(rows, c):
    """Every row with value >= c, in ranked order."""
    ranked = _ranked_rows(rows)
    return _selection(ranked, [pid for pid, v, _ in ranked if v >= c], c)


def gap_selection_oracle(rows, window=100, min_ratio=1.5):
    """The gap rule by a scalar loop over the ranked top; None when no cliff."""
    ranked = _ranked_rows(rows)
    top = [v for _, v, _ in ranked[:window]]
    w = len(top)
    span = top[0] - top[-1]
    if span <= 0:
        return None
    guard = 0.1 * span / w
    best, best_i = 0.0, 0
    for i in range(w - 1):
        if top[i] - top[i + 1] >= guard:
            ratio = top[i] / top[i + 1] if top[i + 1] > 0 else math.inf
            if ratio > best:
                best, best_i = ratio, i
    if best < min_ratio:
        return None
    cutoff = 0.5 * (top[best_i] + top[best_i + 1])
    return _selection(ranked, [pid for pid, v, _ in ranked if v >= cutoff], cutoff)


def bh_selection_oracle(rows, q):
    """BH step-up over rows sorted by (p_value, protein id)."""
    m = len(rows)
    by_p = sorted(rows, key=lambda r: (r[2], r[0]))
    k = 0
    for rank, (_, _, p) in enumerate(by_p, start=1):
        if p <= rank * q / m:
            k = rank
    cutoff = by_p[k - 1][2] if k else float("nan")
    return _selection(_ranked_rows(rows), [pid for pid, _, _ in by_p[:k]], cutoff)


def ingest_reference(path):
    """Matrix ingest as csv.reader plus one float() per cell.

    Returns (protein ids, values, comment metadata) or raises the ParseError
    or ValueError, with its message, that `ingest_matrix` must raise.
    """
    meta, header, rows = {}, None, []
    with open(path, newline="") as fh:
        for raw in csv.reader(fh):
            if not raw:
                continue
            if raw[0].startswith("#"):
                text = ",".join(raw).lstrip("#").strip()
                if ":" in text:
                    key, _, val = text.partition(":")
                    meta[key.strip()] = val.strip()
                continue
            if header is None:
                header = [c.strip() for c in raw]
            else:
                rows.append(raw)
    if header is None:
        raise ParseError(f"{path}: no header row")
    if len(header) < 3 or header[0] != "protein_id":
        raise ParseError(
            f"{path}: header must be protein_id,<at least two sample columns>"
        )
    if not rows:
        raise ParseError(f"{path}: no protein rows")
    ids, seen = [], set()
    values = np.empty((len(rows), len(header) - 1))
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise ParseError(
                f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}"
            )
        pid = row[0].strip()
        if pid in seen:
            raise ParseError(f"{path}: duplicate protein id {pid!r}")
        seen.add(pid)
        ids.append(pid)
        for k, cell in enumerate(row[1:]):
            try:
                v = float(cell)
            except ValueError:
                raise ValueError(
                    f"non-numeric cell at protein {pid!r}, sample "
                    f"{header[k + 1]!r}: {cell!r}"
                ) from None
            if not math.isfinite(v):
                raise ValueError(
                    f"non-finite cell at protein {pid!r}, sample {header[k + 1]!r}"
                )
            values[i, k] = v
    return ids, values, meta


def deviance_column_major_reference(values, n1):
    """The deviance of each row laid out condition-1-first, from numpy's
    variances over one column-major copy of all p >= 2 rows, which numpy
    sums column by column; variances floored at 1e-8 x pooled."""
    x = np.asfortranarray(values)
    N = x.shape[1]
    vpool = x.var(axis=1)
    floor = 1e-8 * np.where(vpool > 0, vpool, 1.0)
    v1 = np.maximum(x[:, :n1].var(axis=1), floor)
    v2 = np.maximum(x[:, n1:].var(axis=1), floor)
    dev = N * np.log(np.maximum(vpool, floor)) - n1 * np.log(v1) - (N - n1) * np.log(v2)
    dev = np.maximum(dev, 0.0)
    dev[vpool == 0] = 0.0
    return dev


def em_multistart_reference(x, n1, n2, tol=1e-8, max_iter=500, debug_monotone=False):
    """The fixed-weight mixture EM as one scalar loop per start.

    Each start of the pinned set (the condition-split fit, pooled mean +/- one
    sd, the sample range) runs its own loop; the pooled normal is the
    zero-iteration candidate, and a start replaces the best fit so far only
    when its log-likelihood is strictly higher. Variances are floored at 1e-8
    x the pooled variance, as in the package.
    """
    x = np.asarray(x, dtype=float)
    N = x.size
    w1, w2 = n1 / N, n2 / N
    mu = float(np.mean(x))
    s2 = float(np.mean((x - mu) ** 2))
    pooled_ll = float(-0.5 * N * np.log(2.0 * np.pi * s2) - 0.5 * np.sum((x - mu) ** 2) / s2)
    floor = 1e-8 * s2
    split_floor = 1e-8 * np.var(x)
    s = float(np.sqrt(s2))
    starts = [
        (float(np.mean(x[:n1])), float(np.mean(x[n1:])),
         float(max(np.var(x[:n1]), split_floor)), float(max(np.var(x[n1:]), split_floor))),
        (mu - s, mu + s, s2, s2),
        (float(np.min(x)), float(np.max(x)), s2, s2),
    ]

    def mixture_loglik(mu1, mu2, s21, s22):
        lp1 = np.log(w1) - 0.5 * np.log(2 * np.pi * s21) - 0.5 * (x - mu1) ** 2 / s21
        lp2 = np.log(w2) - 0.5 * np.log(2 * np.pi * s22) - 0.5 * (x - mu2) ** 2 / s22
        return lp1, lp2, float(np.sum(np.logaddexp(lp1, lp2)))

    best = MixtureFit(mu1=mu, mu2=mu, sigma21=s2, sigma22=s2, w1=w1, w2=w2,
                      loglik=pooled_ll, iterations=0, converged=True)
    for mu1, mu2, s21, s22 in starts:
        converged = False
        it = 0
        lp1, lp2, ll = mixture_loglik(mu1, mu2, s21, s22)
        for it in range(1, max_iter + 1):
            denom = np.logaddexp(lp1, lp2)
            r1 = np.exp(lp1 - denom)
            r2 = 1.0 - r1
            t1, t2 = np.sum(r1), np.sum(r2)
            if t1 <= 0 or t2 <= 0:
                break  # a component lost all responsibility; keep the last fit
            mu1 = float(np.sum(r1 * x) / t1)
            mu2 = float(np.sum(r2 * x) / t2)
            s21 = max(float(np.sum(r1 * (x - mu1) ** 2) / t1), floor)
            s22 = max(float(np.sum(r2 * (x - mu2) ** 2) / t2), floor)
            prev_ll = ll
            lp1, lp2, ll = mixture_loglik(mu1, mu2, s21, s22)
            if debug_monotone:
                assert ll >= prev_ll - 1e-9, "EM log-likelihood decreased"
            if abs(ll - prev_ll) < tol:
                converged = True
                break
        if ll > best.loglik:
            best = MixtureFit(mu1=mu1, mu2=mu2, sigma21=s21, sigma22=s22, w1=w1, w2=w2,
                              loglik=ll, iterations=it, converged=converged)
    return best
