"""The statements of ``src/essayscore`` that only the tests reach.

    python tests/caller_coverage.py

Not a test: pytest does not collect it. Under ``sys.settrace`` it runs,
in this one process, every caller of the package that is not a test:

- ``bench/run.py``'s ``main`` for each workload, at ``--size tiny
  --seed 1 --seconds 1 --trace 0``;
- the demos under ``demos/``, each in a temporary directory;
- CLI sessions on the ``overfit16`` synthetic corpus: ``ingest`` twice
  (the second reuses the manifests), ``train-embeddings``,
  ``train-scorer`` from the embedding file and ``learned``, ``evaluate
  --split all``, ``visualize`` in essay mode and in span mode with
  ``--monochrome``, and ``search`` with and without ``--alpha-choices``;
  the same stages with ``--normalize-scores false``; and two-layer
  bidirectional scorers, one with ``diagonal`` peepholes and
  ``--clip-norm``, one with ``off`` peepholes and dropout 0.

It then prints, module by module, each run of consecutive statements
that none of them executed, and a function none of whose statements ran
as one entry. ``raise`` statements and ``except`` bodies are left out:
error paths are for the tests to reach. The exit status is 1 when a run
failed (a benchmark run whose output is not correct, a demo that raises,
a CLI stage that exits non-zero) and 0 otherwise, whatever the report
lists.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import json
import os
import runpy
import sys
import tempfile
import traceback
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "essayscore"

# sizes small enough that every stage takes a moment, as in CI's
# console-script step
TINY = ["--data-path", "s.tsv", "--splits-dir", "splits",
        "--models-dir", "models", "--reports-dir", "reports",
        "--heatmaps-dir", "heatmaps", "--min-count", "1", "--embed-dim", "8",
        "--hidden-dim", "6", "--window-size", "3", "--n-corruptions", "4",
        "--embed-epochs", "1", "--lstm-dim", "3", "--epochs", "2"]
EVERY_STAGE = [
    ["ingest"], ["ingest"], ["train-embeddings"], ["train-scorer"],
    ["train-scorer", "--embeddings", "learned"], ["evaluate", "--split", "all"],
    ["visualize", "--ids", "1,2"],
    ["visualize", "--ids", "3", "--mode", "span", "--span-len", "4",
     "--monochrome"],
    ["search", "--trials", "2"],
    ["search", "--trials", "2", "--alpha-choices", "0.1,0.5"]]
SCORER_STAGES = [["ingest"], ["train-embeddings"], ["train-scorer"],
                 ["evaluate", "--split", "all"], ["visualize", "--ids", "1,2"]]
BILSTM = ["--layers", "2", "--bidirectional", "true"]
SESSIONS = {
    "default": ([], EVERY_STAGE),
    "raw scores": (["--normalize-scores", "false"], EVERY_STAGE),
    "biLSTM, diagonal peepholes, clipped": (
        BILSTM + ["--peepholes", "diagonal", "--clip-norm", "0.001"],
        SCORER_STAGES),
    "biLSTM, no peepholes, dropout 0": (
        BILSTM + ["--peepholes", "off", "--dropout", "0"], SCORER_STAGES),
}


def line_tracer(executed: dict[str, set[int]]):
    """A ``sys.settrace`` function that records, per file of the package,
    the lines executed; frames of other files get no line events."""
    prefix = str(PACKAGE) + os.sep

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    return calls


@contextlib.contextmanager
def quiet():
    """Stdout and stderr kept, to be shown only if the run fails."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        yield out


def tail(out: io.StringIO) -> str:
    return "\n".join(out.getvalue().splitlines()[-5:])


@contextlib.contextmanager
def scratch_dir():
    """A temporary directory as the working directory and as
    ``tempfile``'s default."""
    cwd, default = os.getcwd(), tempfile.tempdir
    with tempfile.TemporaryDirectory(prefix="caller_coverage_") as tmp:
        os.chdir(tmp)
        tempfile.tempdir = tmp
        try:
            yield tmp
        finally:
            os.chdir(cwd)
            tempfile.tempdir = default


def run_bench(workload: str) -> str | None:
    """``bench/run.py`` in this process; a failure's description, or None."""
    spec = importlib.util.spec_from_file_location("bench_run",
                                                  ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    with quiet() as out:
        code = bench.main(["--workload", workload, "--size", "tiny",
                           "--seed", "1", "--seconds", "1", "--trace", "0"])
    try:
        last = json.loads(out.getvalue().splitlines()[-1])
        ok = last["correct"] is True and last["failed"] == 0
    except (IndexError, ValueError, KeyError, TypeError):
        ok = False
    return None if code == 0 and ok else f"exit {code}: {tail(out)}"


def run_demo(path: Path) -> str | None:
    with scratch_dir(), quiet() as out:
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as exc:
            if exc.code not in (None, 0):
                return f"exit {exc.code}: {tail(out)}"
        except Exception:
            return traceback.format_exc()
    return None


def run_session(flags: list[str], stages: list[list[str]]) -> str | None:
    from essayscore.cli import main
    with scratch_dir(), quiet() as out:
        for argv in [["synth", "--profile", "overfit16", "--out", "s.tsv"]] \
                + [TINY + flags + stage for stage in stages]:
            code = main(argv)
            if code != 0:
                return f"{' '.join(argv)}: exit {code}: {tail(out)}"
    return None


def is_docstring(node: ast.stmt) -> bool:
    return isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)


def is_main_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)


def unexecuted(body: list[ast.stmt], ran: set[int], out: list):
    """Append to ``out`` (first line, last line, statements, text) for each
    run of consecutive statements of ``body`` that did not run, looking
    into the statements that did."""
    run: list[ast.stmt] = []

    def close():
        if run:
            out.append((run[0].lineno, run[-1].end_lineno, len(run),
                        ast.unparse(run[0]).splitlines()[0]))
            run.clear()

    for node in body:
        if isinstance(node, ast.Raise) or is_docstring(node) \
                or is_main_guard(node):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(
            node, "decorator_list", [])])
        if not ran.intersection(range(first, node.end_lineno + 1)):
            run.append(node)
            continue
        close()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            code = [s for s in node.body
                    if not (is_docstring(s) or isinstance(s, ast.Raise))]
            if not code:
                continue  # it only raises
            if not ran.intersection(range(code[0].lineno,
                                          node.end_lineno + 1)):
                out.append((node.lineno, node.end_lineno, 1,
                            f"def {node.name}: never called"))
                continue
        # except bodies are left out, as raise statements are
        for field in ("body", "orelse", "finalbody"):
            unexecuted(getattr(node, field, []), ran, out)
        for case in getattr(node, "cases", []):
            unexecuted(case.body, ran, out)
    close()


def report(executed: dict[str, set[int]]) -> str:
    lines, total = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        found: list = []
        tree = ast.parse(path.read_text(encoding="utf-8"))
        unexecuted(tree.body, executed.get(str(path), set()), found)
        total += len(found)
        name = path.relative_to(ROOT)
        if not found:
            lines.append(f"{name}: every statement ran")
            continue
        lines.append(f"{name}:")
        for first, last, count, text in found:
            where = f"{first}" if first == last else f"{first}-{last}"
            what = f" ({count} statements)" if count > 1 else ""
            lines.append(f"  {where:>9}  {text[:64]}{what}")
    lines.append(f"{total} entries: statements no caller but the tests "
                 f"executed (raise statements and except bodies left out)")
    return "\n".join(lines)


def main() -> int:
    # one BLAS thread, as CI and the benchmark run, set before numpy loads
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    executed: dict[str, set[int]] = defaultdict(set)
    runs = {f"bench {w}": (run_bench, w) for w in ("embed", "train", "serve")}
    runs.update({f"demo {p.stem}": (run_demo, p)
                 for p in sorted((ROOT / "demos").glob("*.py"))})
    runs.update({f"CLI {name}": (run_session, *args)
                 for name, args in SESSIONS.items()})
    failures = {}
    sys.settrace(line_tracer(executed))
    try:
        for name, (fn, *args) in runs.items():
            failure = fn(*args)
            if failure is not None:
                failures[name] = failure
    finally:
        sys.settrace(None)
    print(report(executed))
    for name, failure in failures.items():
        print(f"run failed: {name}: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
