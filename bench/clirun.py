"""The ``cli`` workload: verbs run as typed at a shell, one fresh interpreter
per invocation.  Inputs are drawn from (seed, round), so no system, matrix
or sweep repeats within a run."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT = 60

E8_KAPPA = Fraction(57, 2)  # per unit multiplicity


def bc_kappa(rank: int, short: int, medium: int, long: int) -> Fraction:
    """Closed form for BC_n with simple roots e_i - e_{i+1} and e_n: the
    weighted count of positive roots involving simple root k is
    k (short + long) + medium (k (n - k) + C(n, 2) - C(n - k, 2))."""
    n = rank
    counts = [k * (short + long) + medium * (k * (n - k) + n * (n - 1) // 2
                                             - (n - k) * (n - k - 1) // 2)
              for k in range(1, n + 1)]
    return Fraction(min(counts), 2)


def _matrix(rng, n: int) -> np.ndarray:
    while True:
        a = rng.standard_normal((n, n))
        if np.linalg.det(a) < 0:
            a[:, 0] *= -1.0
        if np.linalg.cond(a) < 1e3:
            return a


def _write_matrix(path: str, a: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"{a.shape[0]}\n")
        for row in a:
            handle.write(" ".join(repr(float(x)) for x in row) + "\n")


def _rational(rng) -> Fraction:
    return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))


def _csv_list(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def make_round(seed: int, round_index: int, out_dir: str) -> list[dict]:
    """The round's invocations, each with what its check needs."""
    rng = np.random.default_rng([seed, round_index, 3])
    tag = f"{seed}-{round_index}"
    sweep_csv = os.path.join(out_dir, f"sweep-{tag}.csv")
    m_kappa, m_weights = rng.choice(np.arange(1, 10), size=2, replace=False)
    bc = [int(rng.integers(2, 7))] + [int(x) for x in rng.integers(1, 9, size=3)]
    f4 = [int(x) for x in rng.integers(1, 9, size=2)]
    eta = [_rational(rng) * 4 for _ in range(4)]
    matrices = []
    for name in ("iwasawa", "kak"):
        path = os.path.join(out_dir, f"{name}-{tag}.txt")
        a = _matrix(rng, int(rng.integers(3, 5)))
        _write_matrix(path, a)
        matrices.append((path, a))
    xi, eta_sl2 = float(rng.uniform(0.5, 1.5)), float(rng.uniform(-0.5, 0.5))
    y_lo = float(rng.uniform(0.4, 0.8))
    su2_points = rng.uniform(0.3, 2.8, size=2)
    sp_xi, sp_y = float(rng.uniform(0.3, 0.8)), float(rng.uniform(0.5, 1.2))
    su2_y = float(rng.uniform(0.3, 2.8))
    fx, fy = rng.uniform(0.5, 1.5, size=3), rng.uniform(0.5, 1.5, size=3)
    ux, uy = rng.uniform(-2, 2, size=3), rng.uniform(-2, 2, size=3)
    m, big_n = int(rng.integers(0, 50)), int(rng.integers(500, 2000))
    return [
        {"verb": "kappa", "argv": ["kappa", "--family", "E8", "--rank", "8",
                                   "--mult", f"all:{m_kappa}"],
         "expect": E8_KAPPA * int(m_kappa)},
        {"verb": "kappa", "argv": ["kappa", "--family", "BC", "--rank", str(bc[0]), "--mult",
                                   f"short:{bc[1]},medium:{bc[2]},long:{bc[3]}"],
         "expect": bc_kappa(*bc)},
        {"verb": "table", "argv": ["table", "--format", "csv"]},
        {"verb": "weights", "argv": ["weights", "--family", "E8", "--rank", "8",
                                     "--mult", f"all:{m_weights}"],
         "expect": E8_KAPPA * int(m_weights)},
        {"verb": "region", "argv": ["region", "--family", "F4", "--rank", "4", "--mult",
                                    f"short:{f4[0]},long:{f4[1]}",
                                    "--eta=" + ",".join(str(x) for x in eta)],
         "system": ("F4", 4, {"short": f4[0], "long": f4[1]}), "eta": eta},
        {"verb": "iwasawa", "argv": ["iwasawa", "--matrix", matrices[0][0]],
         "matrix": matrices[0][1]},
        {"verb": "kak", "argv": ["kak", "--matrix", matrices[1][0]], "matrix": matrices[1][1]},
        {"verb": "spherical", "argv": ["spherical", "--group", "sl2", "--xi", repr(xi),
                                       f"--eta={eta_sl2!r}",
                                       "--ygrid", f"{y_lo!r}:{y_lo + 1.5!r}:5",
                                       "--tmin", "10", "--tmax", "200", "--tsteps", "8"],
         "save": sweep_csv, "xi": xi, "eta": eta_sl2},
        {"verb": "spherical", "argv": ["spherical", "--group", "su2",
                                       "--points", _csv_list(su2_points),
                                       "--tmin", "10", "--tmax", "1000", "--tsteps", "8"]},
        {"verb": "statphase", "argv": ["statphase", "--group", "sl2", "--xi", repr(sp_xi),
                                       "--Y", repr(sp_y), "--tmin", "50", "--tmax", "1600"],
         "xi": sp_xi, "Y": sp_y},
        {"verb": "statphase", "argv": ["statphase", "--group", "su2", "--Y", repr(su2_y),
                                       "--tmin", "50", "--tmax", "1600"], "Y": su2_y},
        {"verb": "decay", "argv": ["decay", "--input", sweep_csv], "csv": sweep_csv},
        {"verb": "holder", "argv": ["holder", "--input", sweep_csv, "--alpha", "0.5,0.6"],
         "csv": sweep_csv},
        {"verb": "expsum", "argv": ["expsum", f"--fx={_csv_list(fx)}", f"--fy={_csv_list(fy)}",
                                    f"--ux={_csv_list(ux)}", f"--uy={_csv_list(uy)}",
                                    "-m", str(m), "-N", str(big_n)],
         "sums": (fx, fy, ux, uy, m, big_n)},
    ]


def invoke(command: list[str], env: dict) -> tuple[float, subprocess.CompletedProcess | None]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(command, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None
    return time.perf_counter() - start, proc


def run_round(invocations: list[dict], env: dict, trace_dir: str | None = None):
    """Runs every invocation in order.  Returns (latencies, outputs); an
    output is the stdout text, or None when the process failed."""
    latencies, outputs = [], []
    for k, inv in enumerate(invocations):
        if trace_dir is None:
            command = [sys.executable, "-m", "sphreg.cli", *inv["argv"]]
        else:
            command = [sys.executable, os.path.join(HERE, "launcher.py"),
                       os.path.join(trace_dir, f"trace-{k}.json"), *inv["argv"]]
        seconds, proc = invoke(command, env)
        latencies.append(seconds)
        ok = proc is not None and proc.returncode == 0
        outputs.append(proc.stdout if ok else None)
        if ok and "save" in inv:
            with open(inv["save"], "w", encoding="utf-8") as handle:
                handle.write(proc.stdout)
    return latencies, outputs


# ---------------------------------------------------------------------------
# checks of the printed output
# ---------------------------------------------------------------------------

def _csv(text: str) -> np.ndarray:
    """The numeric rows of a CSV text, without its header."""
    lines = [line for line in text.splitlines() if line.strip()]
    return np.array([[float(x) for x in line.split(",")] for line in lines[1:]])


def _csv_file(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as handle:
        return _csv(handle.read())


def _matrix_after(lines: list[str], label: str, n: int) -> np.ndarray:
    i = lines.index(label)
    return np.array([[float(x) for x in line.split()] for line in lines[i + 1:i + 1 + n]])


def _vector(lines: list[str], prefix: str) -> np.ndarray:
    line = next(line for line in lines if line.startswith(prefix))
    return np.array([float(x) for x in line[len(prefix):].split()])


def _unimodular(a: np.ndarray) -> np.ndarray:
    return a / np.linalg.det(a) ** (1.0 / a.shape[0])


def check_output(inv: dict, text: str, checks) -> list[str]:
    """Check messages for one invocation's printed output (empty when it
    passes); output that cannot be read is itself a failed check."""
    try:
        return _check_output(inv, text, checks)
    except (ValueError, IndexError, KeyError, StopIteration, AttributeError) as exc:
        return [f"{' '.join(inv['argv'])}: unreadable output ({type(exc).__name__}: {exc})"]


def _check_output(inv: dict, text: str, checks) -> list[str]:
    verb, found = inv["verb"], []
    lines = text.splitlines()
    if verb == "kappa":
        found.append(checks.check_equal(" ".join(inv["argv"]), Fraction(text.strip()),
                                        inv["expect"]))
    elif verb == "table":
        # group names such as SU(2,3) hold unquoted commas: split from the right
        rows = [line.rsplit(",", 3) for line in lines[1:]]
        found.append(checks.check_equal("table rows", len(rows), 137))
        for row in rows:
            found.append(checks.check_equal(f"table {row[0]}", (Fraction(row[1]), row[3]),
                                            (Fraction(row[2]), "true")))
    elif verb == "weights":
        counts = [int(re.search(r"n = (\d+)", line).group(1))
                  for line in lines if line.startswith("mu")]
        kappa = Fraction(lines[-1].split("=")[1].strip())
        label = " ".join(inv["argv"])
        found += [checks.check_equal(f"{label} kappa", kappa, inv["expect"]),
                  checks.check_equal(f"{label} weight count", len(counts), 8),
                  checks.check_lower_bound(label, counts, kappa),
                  checks.check_attained(label, counts, kappa)]
    elif verb == "region":
        from sphreg import rootsys

        system = rootsys.build_root_system(*inv["system"])
        roots = [(r.coeffs, r.multiplicity) for r in system.positive_roots]
        found += [checks.check_roots("F4", "F4", 4, system.gram, [c for c, _ in roots]),
                  checks.check_equal(" ".join(inv["argv"]), text.strip() == "inside",
                                     checks.hull_member(roots, system.gram, inv["eta"]))]
    elif verb == "iwasawa":
        g = _unimodular(inv["matrix"])
        n = g.shape[0]
        product = (_matrix_after(lines, "k =", n) @ np.diag(np.exp(_vector(lines, "h = ")))
                   @ _matrix_after(lines, "nu =", n))
        found.append(checks.check_reconstruction("iwasawa", product, g))
    elif verb == "kak":
        g = _unimodular(inv["matrix"])
        n = g.shape[0]
        product = (_matrix_after(lines, "k1 =", n) @ np.diag(np.exp(_vector(lines, "a_log = ")))
                   @ _matrix_after(lines, "k2 =", n).T)
        found.append(checks.check_reconstruction("kak", product, g))
    elif verb == "spherical":
        rows = _csv(text)
        for t, y, re_, im, _ in rows:
            if inv["argv"][2] == "sl2":
                found.append(checks.check_sl2(t * inv["xi"], inv["eta"], y, complex(re_, im)))
            else:
                found.append(checks.check_compact(int(t), y, re_))
    elif verb == "statphase":
        rows = _csv(text)
        for t, q_re, q_im, _, _, _ in rows:
            if inv["argv"][2] == "sl2":
                found.append(checks.check_sl2(t * inv["xi"], 0.0, inv["Y"], complex(q_re, q_im)))
            else:
                found.append(checks.check_compact(int(t), inv["Y"], q_re))
        found.append(checks.check_error_decreases(" ".join(inv["argv"]), list(rows[:, 5])))
    elif verb == "decay":
        rows = _csv_file(inv["csv"])
        for line in lines:
            fields = dict(item.split("=") for item in line.split())
            y = float(fields["Y"])
            sub = rows[rows[:, 1] == rows[np.argmin(np.abs(rows[:, 1] - y)), 1]]
            slope = checks.log_log_slope(sub[:, 0], np.hypot(sub[:, 2], sub[:, 3]))
            found.append(checks.check_close(f"decay slope at Y={y}", float(fields["slope"]),
                                            slope, 1e-5 * max(1.0, abs(slope))))
    elif verb == "holder":
        rows = _csv_file(inv["csv"])
        grid = np.unique(rows[:, 1])
        family = []
        for t in np.unique(rows[:, 0]):
            sub = rows[rows[:, 0] == t]
            family.append(sub[np.argsort(sub[:, 1]), 2])
        for line in lines:
            alpha = float(line.split()[0].split("=")[1])
            printed = [float(q) for q in line.split("sup_quotients=")[1].split()]
            expected = [checks.holder_sups(values, grid[1] - grid[0], alpha) for values in family]
            found.append(checks.check_equal(f"holder alpha={alpha} members",
                                            len(printed), len(expected)))
            for got, want in zip(printed, expected):
                found.append(checks.check_close(f"holder alpha={alpha}", got, want,
                                                1e-5 * max(1.0, abs(want))))
    elif verb == "expsum":
        found.append(checks.check_expsum(float(text.strip()), *inv["sums"]))
    return [e for e in found if e]


def verb_latencies(invocations: list[dict], latencies: list[float]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for inv, seconds in zip(invocations, latencies):
        out.setdefault(inv["verb"], []).append(seconds)
    return out


def import_probe(env: dict) -> float:
    """Seconds from launch until a fresh interpreter has imported the CLI."""
    code = "import time, sphreg.cli; print(repr(time.perf_counter()))"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=TIMEOUT, check=True)
    return float(proc.stdout) - start
