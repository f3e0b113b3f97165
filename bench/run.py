"""The verity benchmark: one seeded workload, timed end to end or traced.

Usage, from the root of a source checkout (the package is imported from
``src``; nothing needs installing):

    python3 bench/run.py --workload random-mix --seed 1 --seconds 30 --trace 0

Workloads are described in workloads.py and BENCHMARK.json.  A run
generates its inputs from the seed into a scratch directory in the
checkout and computes, untimed, the references outputs are checked
against.  It then measures five operations through the public API and
``verity.cli.main``, run in this process with stdout captured:

  setup     import verity and parse the schema, in a fresh interpreter -> setup_s
  report    ``verity report`` on each corpus file          -> pairs_per_s, decided_ratio
  classify  ``taxonomy.classify`` on each pair             -> classify_p50_us, classify_p99_us
  oracle    ``verity report --oracle`` on each oracle file -> oracle_pairs_per_s
  bdi       ``verity bdi`` on each scenario file           -> scans_per_s

A single closed-loop caller: one process and thread, each call issued when
the previous one returns.  Each operation works through a list of units
(a corpus file, a scenario file, a fresh interpreter) over and over.  The
operations take turns unit by unit, each getting its workload's share of
``--seconds``, until the time is spent and every unit has been measured
MIN_SAMPLES times.  Throughputs are work over the mean time of each unit,
and latency percentiles are taken over the pairs' mean latencies.

Times are scaled to a steady machine.  On the shared 2-core VM this was
written on, the same code runs up to 1.5 times slower while a neighbour
is busy, in spells from milliseconds to minutes, so whole runs of identical
work differ by 30%.  A sixth operation, ``calibration``, times a fixed
piece of pure-Python work that shares no code with verity (a formula
evaluator over dict models) in turn with the others, and every end-to-end
time is multiplied by CALIBRATION_S / (its mean time in this run).  Over
ten random-mix runs this cut the spread (interquartile range over median)
of pairs_per_s from 27% to 3.5%, and of classify_p50_us from 24% to 4.6%.
The unscaled figures and the factor are printed before the result line.

With ``--trace 1`` each unit's samples alternate between untraced and
traced, the per-layer metrics come from the spans of the traced samples
(see tracing.py), and ``trace.overhead_ratio`` compares the two.

Every output is checked: verdicts against gold that does not come from the
code under test, report counts against the corpus, findings against an
oracle-backed scan and against the findings planted by construction, and
the stdout of every report and bdi call against its first sample, byte for
byte.  The last line of stdout is the result, a JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable

import workloads as W
from tracing import Tracer

ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

VERDICTS = (
    "0-well-matched",
    "1a-too-weak",
    "1b-tautologous",
    "2a-too-strong",
    "2b-self-contradictory",
    "3a-independent",
    "3b-conflicting",
    "inconsistent-input",
)

# The entailment facts each verdict is defined by: input satisfiable,
# input |= output, output |= input, input |= !output (None: either).
FACTS = {
    "0-well-matched": (True, True, True, False),
    "1a-too-weak": (True, True, False, False),
    "1b-tautologous": (True, True, False, False),
    "2a-too-strong": (True, False, True, False),
    "2b-self-contradictory": (True, False, True, True),
    "3a-independent": (True, False, False, False),
    "3b-conflicting": (True, False, False, True),
    "inconsistent-input": (False, True, None, True),
}

# Share of the run each operation gets, per workload.
SHARES = {
    "random-mix": {"setup": 0.04, "report": 0.42, "classify": 0.24, "oracle": 0.2, "bdi": 0.1},
    "e2e-slots": {"setup": 0.04, "report": 0.42, "classify": 0.28, "oracle": 0.16, "bdi": 0.1},
    "bdi-scan": {"setup": 0.04, "report": 0.1, "classify": 0.12, "oracle": 0.1, "bdi": 0.64},
}
MIN_SAMPLES = 2
MIN_SETUP_SAMPLES = 7
# The calibration unit's time when no neighbour slows the machine down, on
# the VM the benchmark was written on (Python 3.11, 2 cores).
CALIBRATION_S = 1.25e-3
CALIBRATION_SHARE = 0.04
HOSTILE_DEPTH = 2000
HOSTILE_ATOMS = 1500

SETUP_SNIPPET = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import verity
with open(sys.argv[2], encoding="utf-8") as fh:
    verity.parse_schema(fh.read())
print(time.perf_counter() - start)
"""


_CAL_KEYS = ("a", "b", "c", "d", "e")
_CAL_FORMULA = (
    "or",
    ("and", ("eq", "a", 1), ("not", ("eq", "b", 2))),
    ("and", ("or", ("eq", "c", 3), ("eq", "d", 0)), ("not", ("and", ("eq", "e", 1), ("eq", "a", 2)))),
)


def _cal_eval(f, model) -> bool:
    op = f[0]
    if op == "eq":
        return model[f[1]] == f[2]
    if op == "not":
        return not _cal_eval(f[1], model)
    if op == "and":
        return _cal_eval(f[1], model) and _cal_eval(f[2], model)
    return _cal_eval(f[1], model) or _cal_eval(f[2], model)


def calibration_unit(traced: bool, first: bool) -> float:
    """Evaluate a fixed formula in all 1024 models over five 4-valued keys."""
    start = time.perf_counter()
    for values in itertools.product(range(4), repeat=len(_CAL_KEYS)):
        _cal_eval(_CAL_FORMULA, dict(zip(_CAL_KEYS, values)))
    return time.perf_counter() - start


def quantile(values, q: float) -> float:
    """The q-quantile, interpolating between order statistics; 0 if empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def parse_report(text: str) -> dict:
    """The numbers of a text-format report."""
    doc = {"total": 0, "parse_failures": 0, "resource_limited": 0, "gold_matches": 0, "gold_total": 0}
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "total":
            doc["total"] = int(parts[1])
        elif line.startswith("parse failures:"):
            doc["parse_failures"] = int(parts[-1])
        elif line.startswith("resource limited:"):
            doc["resource_limited"] = int(parts[-1])
        elif line.startswith("gold matches:"):
            matches, total = parts[-1].split("/")
            doc["gold_matches"], doc["gold_total"] = int(matches), int(total)
    return doc


class Operation:
    """Units of one operation, measured in turn, with their samples.

    A unit is called as ``unit(traced, first)`` and returns the seconds it
    measured; ``first`` is true on its first untraced or first traced call.
    """

    def __init__(self, name: str, share: float, units: list[Callable], min_samples: int):
        self.name = name
        self.share = share
        self.units = units
        self.min_samples = min_samples
        self.samples: list[list[float]] = [[] for _ in units]
        self.traced: list[list[float]] = [[] for _ in units]
        self.spent = 0.0
        self._next = 0

    def step(self, trace: bool, tracer: Tracer) -> None:
        u = self._next
        self._next = (u + 1) % len(self.units)
        traced = trace and (len(self.samples[u]) + len(self.traced[u])) % 2 == 1
        into = self.traced[u] if traced else self.samples[u]
        start = time.perf_counter()
        if traced:
            with tracer.installed():
                into.append(self.units[u](True, not into))
        else:
            into.append(self.units[u](False, not into))
        self.spent += time.perf_counter() - start

    def done(self) -> bool:
        return min(len(s) + len(t) for s, t in zip(self.samples, self.traced)) >= self.min_samples

    def mean_pass(self, traced: bool = False) -> float:
        """Seconds for one pass over every unit, from each unit's mean."""
        return sum(statistics.fmean(s) for s in (self.traced if traced else self.samples))


class Bench:
    def __init__(self, workload: W.Workload, seconds: float, trace: bool, work: Path):
        import verity
        import verity.cli

        self.v = verity
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()
        self.schema_path = work / "schema.schema"
        self.schema = verity.parse_schema(workload.schema)
        self.first_out: dict = {}
        self.pair_samples: dict = defaultdict(list)
        self.decided = self.records = 0
        self.counts: Counter = Counter()
        self.verdicts: Counter = Counter()
        self.line_errors: dict = {}
        self.divergences = 0

    # -- bookkeeping ------------------------------------------------------

    def outcome(self, what: str, attempted: int, failed: int) -> None:
        failed = min(failed, attempted)
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.problems[what] += failed

    def cli(self, args: list[str]) -> tuple[int, str, float]:
        """Run ``verity.cli.main`` in process; return code, stdout, seconds."""
        out, err = io.StringIO(), io.StringIO()
        main = self.v.cli.main  # looked up per call: the tracer may have replaced it
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(args)
            except Exception as exc:  # an escape is a failed operation, not a crash
                print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
                rc = -1
        return rc, out.getvalue(), time.perf_counter() - start

    def stable(self, key, out: str) -> bool:
        return self.first_out.setdefault(key, out) == out

    # -- inputs and references --------------------------------------------

    def prepare(self) -> None:
        v, w = self.v, self.w
        self.schema_path.write_text(w.schema, encoding="utf-8")
        if w.name == "random-mix":
            # Oracle gold, written into each record's gold field so that the
            # report's "gold matches" line checks every verdict.
            gold = {}
            for chunk in w.corpus + w.oracle_corpus:
                for p in chunk.pairs:
                    i = v.parse_formula(p.input, self.schema)
                    o = v.parse_formula(p.output, self.schema)
                    gold[p.id] = v.oracle_classify(self.schema, i, o).value
            W.with_gold(w.corpus, gold)
            W.with_gold(w.oracle_corpus, gold)
        self.report_files = self._write_chunks("report", w.corpus)
        self.oracle_files = self._write_chunks("oracle", w.oracle_corpus)
        self.parsed = [
            [(p, v.parse_formula(p.input, self.schema), v.parse_formula(p.output, self.schema)) for p in c.pairs]
            for c in w.corpus
        ]
        self.scenario_files = []
        self.expected_findings = []
        for n, spec in enumerate(w.scenarios):
            path = self.work / f"scenario-{n:02d}.json"
            path.write_text(W.scenario_doc(spec, self.schema_path.name), encoding="utf-8")
            scenario, candidates = v.load_scenario(path)
            reference = v.scan_misleading(
                scenario, candidates,
                entails_fn=lambda a, b, s=scenario.schema: v.oracle_entails(s, a, b),
            )
            lines = [f.render() for f in reference]
            missing = [f for f in spec.planted if f not in lines]
            self.outcome("oracle scan misses a planted finding", len(spec.planted), len(missing))
            self.scenario_files.append(path)
            self.expected_findings.append(lines)

    def _write_chunks(self, stem: str, chunks: list[W.Chunk]) -> list[tuple[Path, W.Chunk]]:
        files = []
        for n, chunk in enumerate(chunks):
            path = self.work / f"{stem}-{n:02d}.jsonl"
            path.write_text("\n".join(chunk.lines()) + "\n", encoding="utf-8")
            files.append((path, chunk))
        return files

    # -- units ----------------------------------------------------------------

    def setup_unit(self, traced: bool, first: bool) -> float:
        """Import verity and parse the schema in a fresh interpreter."""
        done = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_SNIPPET, str(SRC), str(self.schema_path)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        return float(done.stdout)

    def check_report(self, what: str, key, chunk: W.Chunk, rc: int, out: str) -> int:
        """Count the pairs of one report call whose result is wrong; return
        the number decided.  Every record carries gold, so "gold matches"
        covers every decided pair; a pair may instead be refused by the
        resource limit."""
        n = len(chunk.pairs)
        if rc != 0:
            self.outcome(f"{what}: exit code {rc}", n, n)
            return 0
        if not self.stable(key, out):
            self.outcome(f"{what}: stdout differs from its first sample", n, n)
            return 0
        doc = parse_report(out)
        wrong = (
            abs(doc["parse_failures"] - len(chunk.malformed))
            + abs(doc["total"] + doc["resource_limited"] - n)
            + abs(doc["gold_total"] - doc["total"])
            + (doc["gold_total"] - doc["gold_matches"])
        )
        self.outcome(f"{what}: counts disagree with gold", n, wrong)
        return doc["total"]

    def report_unit(self, u: int, traced: bool, first: bool) -> float:
        path, chunk = self.report_files[u]
        self.tracer.tag = ("report", u, "main")
        rc, out, seconds = self.cli(["report", "-s", str(self.schema_path), str(path)])
        decided = self.check_report("report", ("report", u), chunk, rc, out)
        if first and not traced:
            self.records += len(chunk.pairs)
            self.decided += decided
        if traced:
            self.report_steps(u, path, chunk)
        return seconds

    def report_steps(self, u: int, path: Path, chunk: W.Chunk) -> None:
        """The calls ``verity report`` makes, one by one, each in a span."""
        v = self.v
        self.tracer.tag = ("report", u, "steps")
        schema = v.mr.parse_schema(self.schema_path.read_text(encoding="utf-8"))
        with open(path, encoding="utf-8") as fh:
            records, errors = v.report.ingest_corpus(fh, schema)
        counts = v.report.tally(schema, records, parse_failures=len(errors))
        v.report.render_report(counts, "text")
        self.line_errors[u] = len(errors)
        self.outcome("report: line errors differ from planted lines", 1, int(len(errors) != len(chunk.malformed)))

    def classify_unit(self, u: int, traced: bool, first: bool) -> float:
        v = self.v
        seconds = 0.0
        wrong = 0
        for i, (pair, a, b) in enumerate(self.parsed[u]):
            self.tracer.tag = ("classify", pair.slots)
            classify = v.taxonomy.classify
            start = time.perf_counter()
            try:
                verdict = classify(self.schema, a, b).value
            except v.ResourceLimit:
                verdict = None
            except Exception as exc:
                verdict = type(exc).__name__
            dt = time.perf_counter() - start
            seconds += dt
            wrong += verdict is not None and verdict != pair.gold
            if not traced:
                self.pair_samples[u, i].append(dt)
            elif first:
                self.verdicts[verdict or "refused"] += 1
                self.counts["facts_refused"] += self.tracer.call("bench.facts", self.facts, pair, a, b)
        self.outcome("classify: verdict differs from gold", len(self.parsed[u]), wrong)
        return seconds

    def facts(self, pair: W.Pair, a, b) -> int:
        """Ask the four facts ``classify -v`` prints; check them against the
        gold verdict's definition; return how many were refused."""
        v = self.v
        questions = (
            lambda: v.entail.satisfiable(self.schema, a),
            lambda: v.entail.entails(self.schema, a, b),
            lambda: v.entail.entails(self.schema, b, a),
            lambda: v.entail.entails(self.schema, a, v.Not(b)),
        )
        refused = wrong = 0
        for ask, want in zip(questions, FACTS[pair.gold]):
            try:
                got = bool(ask())
            except v.ResourceLimit:
                refused += 1
                continue
            wrong += want is not None and got != want
        self.outcome("facts: an entailment fact contradicts gold", 4, wrong)
        return refused

    def oracle_unit(self, u: int, traced: bool, first: bool) -> float:
        path, chunk = self.oracle_files[u]
        self.tracer.tag = ("oracle", u)
        rc, out, seconds = self.cli(["report", "--oracle", "-s", str(self.schema_path), str(path)])
        self.divergences += rc == 5
        self.check_report("oracle", ("oracle", u), chunk, rc, out)
        return seconds

    def bdi_unit(self, u: int, traced: bool, first: bool) -> float:
        path = self.scenario_files[u]
        self.tracer.tag = ("bdi", u)
        rc, out, seconds = self.cli(["bdi", str(path)])
        expected = self.expected_findings[u] or ["no findings"]
        ok = rc == 0 and self.stable(("bdi", u), out) and out.splitlines() == expected
        self.outcome("bdi: findings differ from the oracle-backed scan", 1, int(not ok))
        if traced:
            self.bdi_library_scan(u, path, first)
        return seconds

    def bdi_library_scan(self, u: int, path: Path, first: bool) -> None:
        """The same scan through the library, counting and timing every
        entailment question with a wrapper passed as ``entails_fn``."""
        v, tracer = self.v, self.tracer
        tracer.tag = ("bdi-library", u, first)
        scenario, candidates = v.bdi.load_scenario(path)

        def entails_fn(a, b):
            return tracer.call("bench.bdi_entails", v.entail.entails, scenario.schema, a, b)

        findings = v.bdi.scan_misleading(scenario, candidates, entails_fn=entails_fn)
        ok = [f.render() for f in findings] == self.expected_findings[u]
        self.outcome("bdi: library scan differs from the oracle-backed scan", 1, int(not ok))
        if first:
            self.counts["candidates"] += len(candidates or v.bdi.default_candidates(scenario))

    # -- the run ------------------------------------------------------------

    def run(self) -> None:
        shares = SHARES[self.w.name]

        def units(method, n):
            return [lambda traced, first, u=u: method(u, traced, first) for u in range(n)]

        ops = [
            Operation("report", shares["report"], units(self.report_unit, len(self.report_files)), MIN_SAMPLES),
            Operation("classify", shares["classify"], units(self.classify_unit, len(self.parsed)), MIN_SAMPLES),
            Operation("oracle", shares["oracle"], units(self.oracle_unit, len(self.oracle_files)), MIN_SAMPLES),
            Operation("bdi", shares["bdi"], units(self.bdi_unit, len(self.scenario_files)), MIN_SAMPLES),
        ]
        if not self.trace:
            ops.append(Operation("setup", shares["setup"], [self.setup_unit], MIN_SETUP_SAMPLES))
            ops.append(Operation("calibration", CALIBRATION_SHARE, [calibration_unit], MIN_SAMPLES))
        start = time.perf_counter()
        while True:
            over = time.perf_counter() - start >= self.seconds
            pending = [op for op in ops if not op.done()]
            if over and not pending:
                break
            op = min(pending if over else ops, key=lambda op: op.spent / op.share)
            op.step(self.trace, self.tracer)
        self.ops = {op.name: op for op in ops}

    def hostile_probe(self) -> int:
        """Feed ingest_corpus and then tally one hostile line at a time and
        count the exceptions that escape.  A bad line should only ever be
        counted as a parse failure; these three are not, today."""
        v = self.v
        schema = v.parse_schema(W.RANDOM_SCHEMA)
        atoms = [W.cat_atom(a, W.RANDOM_ENTITY, W.RANDOM_VALUES[0]) for a in W.RANDOM_ATTRS]
        lines = [
            {"id": "zero-denominator", "input": "Level(e) > 1/0", "output": "true"},
            {"id": "deep-negation", "input": "!" * HOSTILE_DEPTH + atoms[0], "output": atoms[0]},
            {"id": "long-conjunction", "input": " & ".join(atoms[i % 3] for i in range(HOSTILE_ATOMS)), "output": atoms[0]},
        ]
        escaped = 0
        for doc in lines:
            try:
                records, _ = v.ingest_corpus([json.dumps(doc)], schema)
            except Exception:
                escaped += 1
                continue
            try:
                v.tally(schema, records)
            except Exception:
                escaped += 1
        return escaped

    # -- metrics ------------------------------------------------------------

    def scale(self) -> float:
        """Factor that takes this run's times to a steady machine's."""
        return CALIBRATION_S / self.ops["calibration"].mean_pass()

    def end_to_end(self, scale: float) -> dict:
        """The metrics; times are multiplied and rates divided by ``scale``."""
        ops = self.ops

        def pairs(files):
            return sum(len(c.pairs) for _, c in files)

        pair_us = [statistics.fmean(ts) * 1e6 * scale for ts in self.pair_samples.values()]
        return {
            "setup_s": (statistics.median(ops["setup"].samples[0]) * scale, "s"),
            "pairs_per_s": (pairs(self.report_files) / ops["report"].mean_pass() / scale, "1/s"),
            "classify_p50_us": (quantile(pair_us, 0.5), "us"),
            "classify_p99_us": (quantile(pair_us, 0.99), "us"),
            "oracle_pairs_per_s": (pairs(self.oracle_files) / ops["oracle"].mean_pass() / scale, "1/s"),
            "scans_per_s": (len(self.scenario_files) / ops["bdi"].mean_pass() / scale, "1/s"),
            "decided_ratio": (self.decided / self.records, "ratio"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    def per_layer(self, escaped: int) -> dict:
        t = self.tracer

        def us(spans, q=0.5, scale=1.0):
            return quantile([s.us for s in spans], q) * scale

        def tagged(name, kind, *rest):
            return [s for s in t.named(name) if isinstance(s.tag, tuple) and s.tag[0] == kind and s.tag[2:] == rest]

        # Each report unit's traced main, and the same calls made one by
        # one, sample by sample.
        mains = defaultdict(list)
        for s in tagged("cli.main", "report", "main"):
            mains[s.tag[1]].append(s.us / 1e6)
        steps = defaultdict(lambda: defaultdict(list))
        for name in ("mr.parse_schema", "report.ingest_corpus", "report.tally", "report.render_report"):
            for s in tagged(name, "report", "steps"):
                if s.parent is None:
                    steps[name][s.tag[1]].append(s.us / 1e6)

        def step_s(name):
            return sum(statistics.median(xs) for xs in steps[name].values())

        overhead = sum(
            statistics.median(m - sum(steps[name][u][i] for name in steps) for i, m in enumerate(ms))
            for u, ms in mains.items()
        )
        classify = [s for s in t.named("taxonomy.classify") if isinstance(s.tag, tuple) and s.tag[0] == "classify"]
        facts_sat = t.named("entail.satisfiable", "bench.facts")
        facts_ent = t.named("entail.entails", "bench.facts")
        bdi_calls = t.named("bench.bdi_entails")
        untraced = sum(op.mean_pass() for op in self.ops.values())
        traced = sum(op.mean_pass(traced=True) for op in self.ops.values())
        metrics = {
            "mr.parse_formula_us.p50": (us(t.named("mr.parse_formula")), "us"),
            "mr.parse_formula_us.p99": (us(t.named("mr.parse_formula"), 0.99), "us"),
            "mr.parse_schema_us": (us(t.named("mr.parse_schema")), "us"),
            "mr.validate_formula_us.p50": (us(t.named("mr.validate_formula")), "us"),
            "entail.satisfiable_us.p50": (us(facts_sat), "us"),
            "entail.satisfiable_us.p99": (us(facts_sat, 0.99), "us"),
            "entail.entails_us.p50": (us(facts_ent), "us"),
            "entail.entails_us.p99": (us(facts_ent, 0.99), "us"),
            "entail.refused": (self.counts["facts_refused"], "count"),
            "taxonomy.classify_us.p50": (us(classify), "us"),
            "taxonomy.classify_us.p99": (us(classify, 0.99), "us"),
        }
        for n in range(3, 9):
            metrics[f"taxonomy.classify_ms.slots{n}"] = (us([s for s in classify if s.tag[1] == n], 0.5, 1e-3), "ms")
        for name in VERDICTS + ("refused",):
            metrics[f"taxonomy.verdicts.{name}"] = (self.verdicts[name], "count")
        metrics.update({
            "report.ingest_s": (step_s("report.ingest_corpus"), "s"),
            "report.tally_s": (step_s("report.tally"), "s"),
            "report.render_us": (us(tagged("report.render_report", "report", "steps")), "us"),
            "report.line_errors": (sum(self.line_errors.values()), "count"),
            "report.escaped_errors": (escaped, "count"),
            "oracle.classify_us.p50": (us(t.named("oracle.oracle_classify")), "us"),
            "oracle.divergences": (
                self.divergences + sum(s.error == "OracleDivergence" for s in t.named("oracle.checked_classify")),
                "count"),
            "bdi.load_scenario_ms": (us(t.named("bdi.load_scenario"), 0.5, 1e-3), "ms"),
            "bdi.candidates": (self.counts["candidates"], "count"),
            "bdi.entails_calls": (sum(1 for s in bdi_calls if s.tag[2]), "count"),
            "bdi.entails_us.p50": (us(bdi_calls), "us"),
            "cli.main_s": (sum(statistics.median(ms) for ms in mains.values()), "s"),
            "cli.overhead_s": (overhead, "s"),
            "trace.overhead_ratio": (traced / untraced - 1, "ratio"),
        })
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "verity" / "__init__.py").is_file():
        print(f"error: no verity sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = W.WORKLOADS[args.workload](args.seed)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seconds, bool(args.trace), work)
        bench.prepare()
        bench.run()
        if args.trace:
            metrics = bench.per_layer(bench.hostile_probe())
            OUT.mkdir(exist_ok=True)
            bench.tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl.gz")
        else:
            metrics = bench.end_to_end(bench.scale())
            raw = bench.end_to_end(1.0)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {
        "workload": args.workload,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "samples": {name: min(len(s) for s in op.samples) for name, op in bench.ops.items()},
        "properties": workload.properties(),
        "failed_ratio": bench.failed / bench.attempted,
        "problems": dict(bench.problems),
    }
    if not args.trace:
        info["scale"] = bench.scale()
        info["unscaled"] = {name: value for name, (value, _) in raw.items()}
    print(json.dumps({"info": info}))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
