"""The four workloads: what one op does and how its output is checked.

A workload is an endless sequence of rounds.  A round is a fixed list of op
kinds whose inputs are drawn by ``inputs`` from the run's seed and the round
index, so every run holds the same mix of op kinds.  Ops reach the package
through module attributes at call time, which is where a traced run's
wrappers sit.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import inputs as gen
import speed

TWIN_TOL = 1e-8  # acceptance criterion 3: twin curves agree
ANCHOR_TOL = 1e-8  # acceptance criterion 8: alpha(1) and entropy(1) equal ks_entropy
DENOMINATORS = (64, 256, 1024, 4096, 16384, 65536, 262144, 1048576)
GOLDEN_SEED = 20211008
GOLDEN_REL_TOL = 1e-8  # numerical-mode CLI reals, relative to the larger magnitude
GOLDEN_ABS_TOL = 1e-12  # floor for reals that are zero up to rounding
GOLDENS = Path(__file__).with_name("cli_goldens.json")


class CheckError(Exception):
    """An op returned a wrong output."""


def require(condition, message: str) -> None:
    if not condition:
        raise CheckError(message)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


class Workload:
    """Rounds of ops drawn on demand; ``prepare`` draws ahead during set-up."""

    name = ""
    why = ""
    warmup_slots = (0,)  # slots of round 0 run once, untimed, during set-up

    def __init__(self, pkg, seed: int, root: Path):
        self.pkg = pkg
        self.seed = int(seed)
        self.root = root
        self.draws = gen.DrawLog()
        self._rounds = {}

    def round(self, index: int) -> list:
        """Ops of one round; only prepared rounds are kept."""
        prepared = self._rounds.get(index)
        return prepared if prepared is not None else self.make_round(index)

    def make_round(self, index: int) -> list:
        raise NotImplementedError

    def prepare(self, rounds: int) -> None:
        for index in range(rounds):
            if index not in self._rounds:
                self._rounds[index] = self.make_round(index)

    def warmup(self) -> list:
        """Run the warm-up ops once; returns their failures."""
        failures = []
        for slot in self.warmup_slots:
            op = self.round(0)[slot]
            try:
                op.check(op.run())
            except Exception as exc:  # counted as a failed op, like any other
                failures.append(f"warm-up {op.kind}: {type(exc).__name__}: {exc}")
        return failures

    @staticmethod
    def speed_probe():
        return speed.SpeedProbe()

    def info(self) -> dict:
        """Run facts that are not metrics: drawn and skipped inputs, observations."""
        return {"draws": self.draws.summary()}

    def close(self) -> None:
        pass


def _check_anchor(pkg, chain, curve) -> None:
    at = int(np.argmin(np.abs(curve.qs - 1.0)))
    h = pkg.ks_entropy(chain)
    require(abs(curve.alphas[at] - h) <= ANCHOR_TOL, f"alpha(1) {curve.alphas[at]} != ks_entropy {h}")
    require(abs(curve.entropies[at] - h) <= ANCHOR_TOL, f"entropy(1) {curve.entropies[at]} != ks_entropy {h}")


class NumericSpectra(Workload):
    name = "numeric_spectra"
    why = "floating twin pairs and random potentials at n=6..16: power-iteration perron and pure-Python char_poly"
    # Twin pairs interleaved with one random potential per alphabet size.
    ROUND = ("twin", 6, "twin", 8, "twin", 12, "twin", 16)

    def __init__(self, pkg, seed, root):
        super().__init__(pkg, seed, root)
        self.unequal = {}  # n -> random ops whose floating self-comparison said "unequal"
        self.max_deviation = {}

    def make_round(self, index):
        ops = []
        twins = randoms = 0
        for slot, kind in enumerate(self.ROUND):
            rng = gen.rng_for(self.seed, 1, index, slot)
            if kind == "twin":
                draw = gen.numeric_draw(rng, kind, gen.stratum(4 * index + twins), self.draws)
                twins += 1
                ops.append(self._twin_op(draw))
            else:
                draw = gen.numeric_draw(rng, kind, gen.stratum(index, 4 * randoms), self.draws)
                randoms += 1
                ops.append(self._random_op(kind, *draw))
        return ops

    def _twin_op(self, params):
        pkg = self.pkg
        entries = gen.four_entries(*params)

        def run():
            chain = pkg.GibbsChain.from_stochastic(pkg.counterexample_matrix(), entries)
            cert = pkg.snr_certificate(chain)
            twin = pkg.spectral_twin_chain(chain)
            return chain, cert, pkg.spectrum_curve(chain, -3.0, 3.0, 25), pkg.spectrum_curve(twin, -3.0, 3.0, 25)

        def check(result):
            chain, cert, curve_f, curve_g = result
            require(cert.verdict, f"certificate checks failed: {cert.checks}")
            require(cert.details["mode"] == "numerical", "twin certificate is not in numerical mode")
            gap = max(np.abs(curve_f.alphas - curve_g.alphas).max(), np.abs(curve_f.entropies - curve_g.entropies).max())
            require(gap <= TWIN_TOL, f"twin spectra differ by {gap}")
            _check_anchor(pkg, chain, curve_f)

        return Op("twin", run, check)

    def _random_op(self, n, rows, values):
        pkg = self.pkg

        def run():
            base = pkg.TransitionMatrix(rows)
            chain, _ = pkg.normalize(pkg.Potential(base, values))
            curve = pkg.spectrum_curve(chain, -3.0, 3.0, 25)
            again, _ = pkg.normalize(chain.normalized_potential())
            return chain, curve, pkg.char_poly_family_equal(chain, again)

        def check(result):
            chain, curve, (equal, deviation) = result
            _check_anchor(pkg, chain, curve)
            require(math.isfinite(deviation) and deviation >= 0.0, f"char-poly deviation {deviation}")
            # The floating comparison of a chain with itself is reported, not
            # judged: its default 1e-10 tolerance is below Faddeev-LeVerrier
            # rounding at n >= 12.
            if not equal:
                self.unequal[n] = self.unequal.get(n, 0) + 1
            self.max_deviation[n] = max(self.max_deviation.get(n, 0.0), deviation)

        return Op(f"random{n}", run, check)

    def info(self):
        out = super().info()
        out["char_poly_self_unequal_at_default_tol"] = {str(k): v for k, v in sorted(self.unequal.items())}
        out["char_poly_self_max_deviation"] = {str(k): v for k, v in sorted(self.max_deviation.items())}
        return out


class ExactCertificates(Workload):
    name = "exact_certificates"
    why = "rational entries, denominators 64 to 2^20: Fraction cycle-cover profile and automorphisms, no perron call"

    def make_round(self, index):
        return [
            self._op(d, gen.exact_tuple(gen.rng_for(self.seed, 2, index, slot), d))
            for slot, d in enumerate(DENOMINATORS)
        ]

    def _op(self, denominator, params):
        pkg = self.pkg
        entries = gen.four_entries(*params)
        twin_entries = gen.twin_entries(*params)

        def run():
            chain = pkg.GibbsChain.from_stochastic(pkg.counterexample_matrix(), entries)
            cert = pkg.snr_certificate(chain)
            twin = pkg.GibbsChain.from_stochastic(chain.base, twin_entries)
            return cert, pkg.chains_cohomologous(chain, twin)

        def check(result):
            cert, cohomology = result
            require(cert.verdict, f"certificate checks failed: {cert.checks}")
            require(cert.details["witness_cycle"] == (1, 3, 2, 1), f"witness {cert.details['witness_cycle']}")
            require(cert.details["spectra_max_deviation"] == 0.0, "exact deviation is not 0.0")
            require(cert.details["mode"] == "exact", f"mode {cert.details['mode']}")
            require(cohomology == (False, (1, 3, 2, 1)), f"chains_cohomologous gave {cohomology}")

        return Op(f"d{denominator}", run, check)


class Conjugacy(Workload):
    name = "conjugacy"
    why = "word enumeration and the backward-walk decoders; the word cache drives memory"
    RECONSTRUCT_PER_ROUND = 11
    ROUND = (
        "reconstruct", "self4", "reconstruct", "reconstruct", "random5", "reconstruct",
        "self4", "reconstruct", "reconstruct", "obstruction", "reconstruct", "self4",
        "reconstruct", "reconstruct", "random6", "reconstruct", "self4", "reconstruct",
    )
    warmup_slots = (1,)  # a self-conjugacy on the shared base fills its word cache

    def __init__(self, pkg, seed, root):
        super().__init__(pkg, seed, root)
        self.four = pkg.TransitionMatrix(gen.FOUR_ROWS)  # reused: its word cache stays warm

    def make_round(self, index):
        pkg = self.pkg
        chain = None
        ops = []
        words = 0
        for slot, kind in enumerate(self.ROUND):
            rng = gen.rng_for(self.seed, 3, index, slot)
            if kind == "reconstruct":
                if chain is None:
                    chain = pkg.GibbsChain.from_stochastic(self.four, gen.stochastic_entries(rng, gen.FOUR_ROWS))
                length = 2 + (index * self.RECONSTRUCT_PER_ROUND + words) % 7
                words += 1
                ops.append(self._reconstruct_op(chain, gen.random_word(rng, gen.FOUR_ROWS, length, (2, 4))))
            elif kind == "self4":
                ops.append(self._self_op(kind, lambda: self.four, gen.stochastic_entries(rng, gen.FOUR_ROWS)))
            elif kind == "obstruction":
                ops.append(self._obstruction_op(gen.four_entries(*gen.twin_tuple(rng))))
            else:
                n = int(kind[len("random"):])
                rows = gen.conjugacy_base(rng, n, gen.stratum(index, 8 * (n - 5)), self.draws)
                make_base = functools.partial(pkg.TransitionMatrix, rows)  # a fresh base: cold word cache
                ops.append(self._self_op(kind, make_base, gen.stochastic_entries(rng, rows)))
        return ops

    def _self_op(self, kind, make_base, entries):
        pkg = self.pkg

        def run():
            chain = pkg.GibbsChain.from_stochastic(make_base(), entries)
            return pkg.induce_conjugacy(chain, chain)

        def check(code):
            require(isinstance(code, pkg.BlockCode), f"self-conjugacy gave {code}")
            require(code.is_identity(), "self-conjugacy is not the identity code")

        return Op(kind, run, check)

    def _obstruction_op(self, entries):
        pkg = self.pkg

        def run():
            chain = pkg.GibbsChain.from_stochastic(self.four, entries)
            return pkg.induce_conjugacy(chain, pkg.spectral_twin_chain(chain))

        def check(result):
            require(isinstance(result, pkg.ConjugacyObstruction), f"twin conjugacy gave {result}")
            require(result.kind == "value_set_mismatch", f"obstruction kind {result.kind}")

        return Op("obstruction", run, check)

    def _reconstruct_op(self, chain, word):
        pkg = self.pkg
        values = [float(chain.q[i - 1, j - 1]) for i, j in zip(word, word[1:])]

        def check(result):
            require(result == word, f"reconstructed {result} from the values of {word}")

        return Op("reconstruct", lambda: pkg.reconstruct_word(chain, values), check)


def _fraction_grid(rows, entries) -> list:
    n = len(rows)
    grid = [[None] * n for _ in range(n)]
    for (i, j), v in entries.items():
        grid[i - 1][j - 1] = str(v) if v.denominator != 1 else int(v)
    return grid


def _log_grid(rows, values) -> list:
    n = len(rows)
    grid = [[None] * n for _ in range(n)]
    for (i, j), v in values.items():
        grid[i - 1][j - 1] = v
    return grid


def _matrix(rows) -> dict:
    return {"n": len(rows), "rows": [[int(x) for x in row] for row in rows]}


def same_structure(doc, golden, path="$"):
    """None when ``doc`` matches ``golden`` key for key, with reals within
    the golden tolerance; otherwise the path of the first difference."""
    if isinstance(golden, float) and isinstance(doc, float):
        ok = abs(doc - golden) <= GOLDEN_REL_TOL * max(abs(doc), abs(golden)) + GOLDEN_ABS_TOL
        return None if ok else path
    if type(doc) is not type(golden):
        return path
    if isinstance(golden, dict):
        if list(doc) != list(golden):
            return path
        for key in golden:
            diff = same_structure(doc[key], golden[key], f"{path}.{key}")
            if diff:
                return diff
        return None
    if isinstance(golden, list):
        if len(doc) != len(golden):
            return path
        for k, (a, b) in enumerate(zip(doc, golden)):
            diff = same_structure(a, b, f"{path}[{k}]")
            if diff:
                return diff
        return None
    return None if doc == golden else path


class Cli(Workload):
    name = "cli"
    why = "whole CLI processes: interpreter start, imports, argparse and JSON output, with goldens"
    warmup_slots = (6,)  # shift info: starts the interpreter and imports the package
    EXACT_COMMANDS = ("rigidity-certificate", "rigidity-counterexample", "spectrum-compare", "shift-info")

    def __init__(self, pkg, seed, root, goldens=None):
        super().__init__(pkg, seed, root)
        self.goldens = json.loads(GOLDENS.read_text())["commands"] if goldens is None else goldens
        self.work = root / ".bench_work" / str(os.getpid())
        self.work.mkdir(parents=True, exist_ok=True)
        self.in_process = False
        src = str(root / "src")
        self.env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))

    @staticmethod
    def speed_probe():
        return speed.SpeedProbe(speed.start_python_with_numpy, speed.PROCESS_NOMINAL_S, speed.PROCESS_EVERY_S)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()  # only once no other run uses it

    def _write(self, name, doc) -> str:
        (self.work / name).write_text(json.dumps(doc))
        return name

    def round_inputs(self, index) -> list:
        """Problem files of one round and the argv of its eight commands.

        Round 0 is drawn from the golden seed whatever the run's seed, so
        every run replays the recorded golden commands once.
        """
        seed = GOLDEN_SEED if index == 0 else self.seed
        rng = gen.rng_for(seed, 4, index)
        tag = f"r{index}"
        params = gen.exact_tuple(rng, DENOMINATORS[index % len(DENOMINATORS)])
        four = self._write(f"{tag}-four.json", {"matrix": _matrix(gen.FOUR_ROWS), "potential": {"q_matrix": _fraction_grid(gen.FOUR_ROWS, gen.four_entries(*params))}})
        twin = self._write(f"{tag}-twin.json", {"matrix": _matrix(gen.FOUR_ROWS), "potential": {"q_matrix": _fraction_grid(gen.FOUR_ROWS, gen.twin_entries(*params))}})
        n = 4 + index % 5
        while True:
            rows = gen.random_primitive(rng, n, 0.4)
            values = gen.edge_values(rng, rows)
            worst, _ = gen.predicted_power_steps(rows, values)
            self.draws.drawn(f"curve{n}")
            if worst <= gen.POWER_STEP_CAP:
                break
            self.draws.skip(f"curve{n}", worst)
        curve = self._write(f"{tag}-curve.json", {"matrix": _matrix(rows), "potential": {"log_values": _log_grid(rows, values)}})
        rows6 = gen.random_primitive(rng, 6, 0.4)
        gibbs = self._write(f"{tag}-gibbs.json", {"matrix": _matrix(rows6), "potential": {"log_values": _log_grid(rows6, gen.edge_values(rng, rows6))}})
        word = ",".join(str(s) for s in gen.random_word(rng, rows6, 5, range(1, 7)))
        shift = self._write(f"{tag}-shift.json", {"matrix": _matrix(gen.random_primitive(rng, 8, 0.4))})
        logs = {e: math.log(v) for e, v in gen.stochastic_entries(rng, gen.FOUR_ROWS).items()}
        conj = self._write(f"{tag}-conj.json", {"matrix": _matrix(gen.FOUR_ROWS), "potential": {"log_values": _log_grid(gen.FOUR_ROWS, logs)}})
        return [
            ("rigidity-certificate", ["rigidity", "certificate", "--input", four]),
            ("rigidity-counterexample", ["rigidity", "counterexample", "--input", four]),
            ("spectrum-compare", ["spectrum", "compare", "--input", four, "--other", twin]),
            ("spectrum-curve", ["spectrum", "curve", "--input", curve, "--table", f"{tag}-curve.csv"]),
            ("gibbs-normalize", ["gibbs", "normalize", "--input", gibbs]),
            ("gibbs-measure", ["gibbs", "measure", "--input", gibbs, "--word", word]),
            ("shift-info", ["shift", "info", "--input", shift]),
            ("rigidity-conjugacy", ["rigidity", "conjugacy", "--input", conj, "--other", conj]),
        ]

    def make_round(self, index):
        return [self._op(command, argv, index == 0) for command, argv in self.round_inputs(index)]

    def run_command(self, argv) -> tuple:
        """(exit code, stdout bytes) of one CLI call, as a process or in-process."""
        if not self.in_process:
            proc = subprocess.run(
                [sys.executable, "-m", "markovgibbs.cli", *argv],
                cwd=self.work, env=self.env, capture_output=True, timeout=120,
            )
            return proc.returncode, proc.stdout
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = self.pkg.cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue().encode()

    @contextlib.contextmanager
    def calls_in_process(self):
        """Run ops through ``cli.main`` in this process, from the work directory."""
        previous = os.getcwd()
        os.chdir(self.work)
        self.in_process = True
        try:
            yield
        finally:
            self.in_process = False
            os.chdir(previous)

    def _op(self, command, argv, golden_round):
        golden = self.goldens[command]

        def check(result):
            code, stdout = result
            require(code == golden["exit"], f"{command}: exit code {code}, expected {golden['exit']}")
            doc = json.loads(stdout)
            require(list(doc) == golden["keys"], f"{command}: output keys {list(doc)}")
            if golden_round:
                if golden["mode"] == "exact":
                    digest = hashlib.sha256(stdout).hexdigest()
                    require(digest == golden["sha256"], f"{command}: stdout differs from the golden")
                else:
                    diff = same_structure(doc, golden["doc"])
                    require(diff is None, f"{command}: output differs from the golden at {diff}")
            if command == "rigidity-certificate":
                require(doc["verdict"] is True and doc["mode"] == "exact", f"{command}: verdict {doc['verdict']}")
            elif command == "spectrum-compare":
                require(doc["equal"] is True and doc["max_deviation"] == 0.0, f"{command}: {doc}")
            elif command == "rigidity-conjugacy":
                require(doc["code"]["identity"] is True, f"{command}: not the identity code")

        return Op(command, lambda: self.run_command(argv), check)

    def process_costs(self, probe, repeats: int = 5) -> dict:
        """Median time of ``python -c pass`` and the extra time of
        ``import markovgibbs.cli``, from alternating child processes, scaled
        by the speed probe."""
        bare, loaded = [], []
        for _ in range(repeats):
            for code, times in (("pass", bare), ("import markovgibbs.cli", loaded)):
                probe.sample(force=True)
                start = perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=self.work, env=self.env, check=True, timeout=120)
                times.append((perf_counter() - start) * probe.scale([start])[0])
        start_ms = float(np.median(bare)) * 1e3
        return {"cli.interpreter_start_ms": start_ms, "cli.import_ms": float(np.median(loaded)) * 1e3 - start_ms}


WORKLOADS = {w.name: w for w in (NumericSpectra, ExactCertificates, Conjugacy, Cli)}
