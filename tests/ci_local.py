"""Run the CI workflow's steps on this machine, with one command.

Usage (from anywhere):

    python3 tests/ci_local.py

It reads the steps of `.github/workflows/tests.yml` (with a small reader of
that file's fixed shape, so it needs no YAML library) and runs each `run:`
block under `bash -eo pipefail` in the repository root, one after another,
within the job's `timeout-minutes`.  Each block sees an `anomcancel` command
on `PATH` that runs `anomcancel.cli:main` from `src/`, `PYTHONPATH` set to
`src/`, a fresh `RUNNER_TEMP` and `GITHUB_WORKSPACE` set to the repository
root.  Nothing is installed: the steps on `SKIPPED_STEPS` are not run, each
`pip install` line of a block is dropped, and each is printed as skipped.
The runner prints each step's name, exit code and seconds, then the total,
names the matrix legs of other Python versions that it does not run, and
exits 1 if any step failed.

This file is not a test module: pytest does not collect it.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"

# steps that only install what this machine already has
SKIPPED_STEPS = ("Install the test dependencies",)
PIP_INSTALL = re.compile(r"^\s*(python3? -m )?pip3? install\b")
# the step keys this runner knows; it refuses any other
STEP_KEYS = ("name", "uses", "run", "with")


def read_steps(text: str) -> list[dict[str, str]]:
    """The job's steps, each a dict of its `name`, `uses` and `run` (a block
    scalar dedented, with its last newline); `with:` mappings are dropped.
    Any other step key (`env:`, `if:`, `shell:`, ...) is refused with a
    ValueError, since this runner would not honour it."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.strip() == "steps:") + 1
    item = len(lines[start]) - len(lines[start].lstrip())   # the indent of "- "
    steps: list[dict[str, str]] = []
    i = start
    while i < len(lines):
        line = lines[i]
        indent = len(line) - len(line.lstrip())
        if line.strip() and indent < item:
            break
        i += 1
        if not line.strip():
            continue
        if indent == item and line.lstrip().startswith("- "):
            steps.append({})
            line = " " * (item + 2) + line.lstrip()[2:]
        key, _, value = line.strip().partition(":")
        value = value.strip()
        if len(line) - len(line.lstrip()) != item + 2:
            continue
        if key not in STEP_KEYS:
            raise ValueError(f"step key {key!r} is not run by this runner")
        if key == "with":
            continue
        if value in ("|", "|-"):
            block = []
            while i < len(lines) and (not lines[i].strip()
                                      or len(lines[i]) - len(lines[i].lstrip()) > item + 2):
                block.append(lines[i])
                i += 1
            while block and not block[-1].strip():
                block.pop()
            cut = min(len(b) - len(b.lstrip()) for b in block if b.strip())
            value = "\n".join(b[cut:] for b in block) + "\n"
        elif value[:1] in "'\"":
            value = value[1:-1]
        steps[-1][key] = value
    return steps


def _shim(bin_dir: Path) -> None:
    shim = bin_dir / "anomcancel"
    shim.write_text(
        "#!/bin/sh\n"
        f'exec "{sys.executable}" -c \'import sys; sys.argv[0] = "anomcancel"; '
        'from anomcancel.cli import main; sys.exit(main())\' "$@"\n', encoding="utf-8")
    shim.chmod(0o755)


def _run(script: str, env: dict[str, str], timeout: float) -> int:
    proc = subprocess.Popen(["bash", "-eo", "pipefail", "-c", script], cwd=ROOT, env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=max(timeout, 0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"  the job's time ran out after {timeout:.0f} s")
        return 124


def main() -> int:
    text = WORKFLOW.read_text(encoding="utf-8")
    steps = read_steps(text)
    minutes = int(re.search(r"timeout-minutes:\s*(\d+)", text).group(1))
    legs = re.search(r"python-version:\s*\[(.*)\]", text).group(1)
    here = f"{sys.version_info.major}.{sys.version_info.minor}"
    others = [v.strip(" '\"") for v in legs.split(",") if v.strip(" '\"") != here]
    print(f"workflow {WORKFLOW.relative_to(ROOT)}: {len(steps)} steps, job timeout {minutes} min")
    print(f"running the Python {here} leg only; not run: Python {', '.join(others) or 'none'}")
    results, failed = [], 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ci-local-") as tmp:
        bin_dir, runner_temp = Path(tmp) / "bin", Path(tmp) / "runner-temp"
        bin_dir.mkdir()
        runner_temp.mkdir()
        _shim(bin_dir)
        env = {**os.environ, "PATH": f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               "PYTHONPATH": str(ROOT / "src"), "RUNNER_TEMP": str(runner_temp),
               "GITHUB_WORKSPACE": str(ROOT)}
        for step in steps:
            name = step.get("name") or f"uses: {step.get('uses')}"
            if "run" not in step or name in SKIPPED_STEPS:
                print(f"SKIPPED  {name}", flush=True)
                continue
            print(f"RUN      {name}", flush=True)
            kept = []
            for line in step["run"].splitlines():
                if PIP_INSTALL.match(line):
                    print(f"  skipped line: {line.strip()}", flush=True)
                else:
                    kept.append(line)
            t0 = time.perf_counter()
            code = _run("\n".join(kept) + "\n", env, minutes * 60 - (t0 - start))
            seconds = time.perf_counter() - t0
            failed += code != 0
            results.append((name, code, seconds))
            print(f"{'ok' if code == 0 else 'FAILED':<9}exit {code}, {seconds:.1f} s", flush=True)
    print()
    for name, code, seconds in results:
        print(f"exit {code:<4}{seconds:7.1f} s  {name}")
    print(f"{len(results) - failed} of {len(results)} steps passed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
