"""The benchmark's workloads: inputs made from the seed, op argv, output checks.

Every op is one in-process call ``qmarkov.cli.main(argv)``.  The program
receives only argv and the files written here.  Expected values are the other
side of the CMI / relative-entropy-difference reduction identity, computed
through qmarkov's API before the timed loop starts.
"""

from __future__ import annotations

import math
import re
from pathlib import Path

import qmarkov
import qmarkov.cli

# Acceptance criterion 6 bounds the reduction identity by 1e-9 bits.
IDENTITY_TOL = 1e-9

VERIFY_SUITES = ("trace", "characterization", "limits", "inequalities")
VERIFY_CHECKS_PER_TRIAL = 152
SUITE_LINE = re.compile(r"^suite (\S+): (PASS|FAIL) \((\d+) checks", re.M)

# The 50 trials of acceptance criterion 11 (verify --suite all --dims 2,2,2
# --trials 50 --seed 42), one trial per op.  Other seeds are not used: 9 of
# seeds 0-1499 fail a check whose fixed tolerance is too tight for them
# (see README.md).
CRITERION_11_SEEDS = tuple(range(42, 92))

# State seeds tried per workload seed by full_rank_seed.
STATE_SEED_TRIES = 16


def full_rank_seed(dims: tuple[int, ...], seed: int) -> int:
    """The first state seed from ``seed * STATE_SEED_TRIES`` on whose random
    state qmarkov counts as positive definite.

    A random full-rank state of dimension d has a smallest eigenvalue of order
    d^-3 with an exponential lower tail, so about one 512-dimensional draw in
    100 (seeds 25, 287, 311 and 334 of 0-399) falls below qmarkov's 1e-10
    positive-definiteness tolerance.  Those draws are not full rank to the
    program, and are skipped.
    """
    first = seed * STATE_SEED_TRIES
    for candidate in range(first, first + STATE_SEED_TRIES):
        if qmarkov.random_density(dims, seed=candidate).is_positive_definite():
            return candidate
    raise RuntimeError(f"no positive definite state among seeds {first}..{candidate}")


class Workload:
    """One closed-loop client cycling through ``cycle`` distinct ops."""

    name = ""
    cycle = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self._first: dict[tuple, object] = {}

    def setup(self):
        """Generate the inputs through qmarkov's public API (timed)."""

    def references(self):
        """Compute the expected outputs (not timed)."""

    def op(self, i: int) -> list[str]:
        raise NotImplementedError

    def output(self, argv: list[str], stdout: str):
        """What the op produced: its stdout, or the file it wrote."""
        return stdout

    def check_output(self, argv: list[str], output) -> str | None:
        raise NotImplementedError

    def check(self, argv: list[str], rc, stdout: str) -> str | None:
        """None when the op's output is right, else what is wrong with it."""
        if rc != 0:
            return f"exit code {rc}"
        output = self.output(argv, stdout)
        first = self._first.setdefault(tuple(argv), output)
        if output != first:
            return "output differs from the first run of the same argv"
        return self.check_output(argv, output)


def _value_error(label: str, text: str, expected: float) -> str | None:
    try:
        value = float(text)
    except ValueError:
        return f"{label}: unparsable value {text!r}"
    if math.isfinite(value) and abs(value - expected) <= IDENTITY_TOL:
        return None
    return f"{label}: got {value!r}, expected {expected!r} within {IDENTITY_TOL}"


class Verify222(Workload):
    """The criterion-11 verify run, cut into one-trial ops on consecutive seeds.

    The workload seed picks the trial to start from.  The ops cost about the
    same, so a run may end after any op.
    """

    name = "verify-222"

    def op(self, i):
        seed = CRITERION_11_SEEDS[(self.seed + i) % len(CRITERION_11_SEEDS)]
        return ["verify", "--suite", "all", "--dims", "2,2,2", "--trials", "1",
                "--seed", str(seed)]

    def check_output(self, argv, output):
        found = {m.group(1): (m.group(2), int(m.group(3))) for m in SUITE_LINE.finditer(output)}
        if sorted(found) != sorted(VERIFY_SUITES):
            return f"suites reported: {sorted(found)}"
        failed = [name for name, (verdict, _) in found.items() if verdict != "PASS"]
        if failed:
            return f"suites not passing: {failed}"
        checks = sum(n for _, n in found.values())
        if checks != VERIFY_CHECKS_PER_TRIAL:
            return f"{checks} checks, expected {VERIFY_CHECKS_PER_TRIAL}"
        return None


class Compute512(Workload):
    """One ``compute`` per op on a full-rank 8x8x8 state file."""

    name = "compute-512"
    CONFIGS = (
        ("cmi", None),
        ("renyi-cmi", 0.5),
        ("renyi-cmi", 1.5),
        ("sand-cmi", 0.75),
        ("sand-cmi", 2.0),
        ("imax", None),
        ("imin", None),
    )
    cycle = len(CONFIGS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.state_seed = full_rank_seed((8, 8, 8), seed)
        self.state_path = self.workdir / "state-888.json"
        self.expected: dict[tuple, float] = {}

    def setup(self):
        rc = qmarkov.cli.main(["generate", "--kind", "random-state", "--dims", "8,8,8",
                               "--seed", str(self.state_seed), "--out", str(self.state_path)])
        if rc != 0:
            raise RuntimeError(f"generate random-state exited {rc}")

    def references(self):
        state = qmarkov.TripartiteState(qmarkov.load_state(self.state_path))
        triple = qmarkov.cmi_as_triple(state)
        side = {
            "cmi": lambda a: qmarkov.rel_ent_diff(triple),
            "renyi-cmi": lambda a: qmarkov.renyi_rel_ent_diff(triple, a),
            "sand-cmi": lambda a: qmarkov.sandwiched_rel_ent_diff(triple, a),
            "imax": lambda a: qmarkov.minmax_rel_ent_diff(triple, "max"),
            "imin": lambda a: qmarkov.minmax_rel_ent_diff(triple, "min"),
        }
        self.expected = {(m, a): side[m](a) for m, a in self.CONFIGS}

    def op(self, i):
        measure, alpha = self.CONFIGS[i % self.cycle]
        argv = ["compute", "--measure", measure, "--state", str(self.state_path)]
        if alpha is not None:
            argv += ["--alpha", repr(alpha)]
        return argv

    def check_output(self, argv, output):
        measure = argv[argv.index("--measure") + 1]
        alpha = float(argv[argv.index("--alpha") + 1]) if "--alpha" in argv else None
        return _value_error(f"{measure} alpha={alpha}", output, self.expected[(measure, alpha)])


class Triple216(Workload):
    """Sweeps and computes on the CMI triple of a full-rank 6x6x6 state."""

    name = "triple-216"
    SWEEPS = {"delta": (0.5, 1.5), "delta-tilde": (0.6, 1.6)}
    STEP = 0.1
    COMPUTES = ("red", "delta-min", "delta-max")
    cycle = len(SWEEPS) + len(COMPUTES)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.state_seed = full_rank_seed((6, 6, 6), seed)
        self.paths = {k: self.workdir / f"{k}.json" for k in ("rho", "sigma", "channel")}
        self.state = None
        self.expected: dict[str, object] = {}

    def setup(self):
        self.state = qmarkov.TripartiteState(
            qmarkov.random_density((6, 6, 6), seed=self.state_seed))
        triple = qmarkov.cmi_as_triple(self.state)
        qmarkov.save_state(self.paths["rho"], triple.rho)
        qmarkov.save_state(self.paths["sigma"], triple.sigma)
        qmarkov.save_channel(self.paths["channel"], triple.channel)

    @classmethod
    def grid(cls, measure: str) -> list[float]:
        start, stop = cls.SWEEPS[measure]
        count = int(round((stop - start) / cls.STEP)) + 1
        return [round(start + k * cls.STEP, 12) for k in range(count)]

    def references(self):
        state = self.state
        vn = qmarkov.von_neumann_cmi(state)
        cmi_side = {"delta": qmarkov.renyi_cmi, "delta-tilde": qmarkov.sandwiched_cmi}
        for measure, fn in cmi_side.items():
            self.expected[measure] = [
                (a, vn if abs(a - 1.0) < 1e-9 else fn(state, a)) for a in self.grid(measure)
            ]
        self.expected["red"] = vn
        self.expected["delta-min"] = qmarkov.minmax_cmi(state, "min")
        self.expected["delta-max"] = qmarkov.minmax_cmi(state, "max")

    def _files(self) -> list[str]:
        return ["--rho", str(self.paths["rho"]), "--sigma", str(self.paths["sigma"]),
                "--channel", str(self.paths["channel"])]

    def op(self, i):
        k = i % self.cycle
        sweeps = list(self.SWEEPS)
        if k < len(sweeps):
            measure = sweeps[k]
            start, stop = self.SWEEPS[measure]
            grid = f"{start}:{stop}:{self.STEP}"
            out = self.workdir / f"sweep-{measure}.csv"
            return ["sweep", "--measure", measure, "--alpha-grid", grid,
                    "--out", str(out)] + self._files()
        measure = self.COMPUTES[k - len(sweeps)]
        return ["compute", "--measure", measure] + self._files()

    def output(self, argv, stdout):
        if argv[0] == "sweep":
            return Path(argv[argv.index("--out") + 1]).read_bytes()
        return stdout

    def check_output(self, argv, output):
        measure = argv[argv.index("--measure") + 1]
        if argv[0] == "compute":
            return _value_error(measure, output, self.expected[measure])
        lines = output.decode("utf-8").splitlines()
        expected = self.expected[measure]
        if lines[:1] != ["alpha,value_bits"] or len(lines) != len(expected) + 1:
            return f"sweep {measure}: unexpected table shape"
        for line, (alpha, value) in zip(lines[1:], expected):
            a_text, _, v_text = line.partition(",")
            if a_text != repr(alpha):
                return f"sweep {measure}: row alpha {a_text!r}, expected {alpha!r}"
            error = _value_error(f"sweep {measure} alpha={alpha}", v_text, value)
            if error:
                return error
        return None


WORKLOADS = {cls.name: cls for cls in (Verify222, Compute512, Triple216)}
