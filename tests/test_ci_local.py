"""The local CI runner (`tests/ci_local.py`) reads every step of the workflow:
each named step is run, or skipped by name because it only installs."""

import re

import pytest

import ci_local

TEXT = ci_local.WORKFLOW.read_text(encoding="utf-8")
STEPS = ci_local.read_steps(TEXT)


def test_every_step_is_read():
    # the step items, counted without the reader
    items = sum(bool(re.match(r"\s*- (name|uses):", line)) for line in TEXT.splitlines())
    assert len(STEPS) == items > 0
    # a step without a name is a `uses:` action, which runs nothing here
    assert all("run" in step for step in STEPS if "name" in step)
    assert all(set(step) == {"uses"} for step in STEPS if "name" not in step)


def test_every_named_step_is_run_or_on_the_skip_list():
    names = [step["name"] for step in STEPS if "name" in step]
    assert len(set(names)) == len(names)
    assert set(ci_local.SKIPPED_STEPS) <= set(names)
    for step in STEPS:
        if step.get("name") in ci_local.SKIPPED_STEPS:
            assert all(ci_local.PIP_INSTALL.match(line) for line in step["run"].splitlines())


def test_pip_lines_are_the_only_lines_dropped():
    grid = next(s for s in STEPS if s.get("name", "").startswith("Default verification grid"))
    kept = [line for line in grid["run"].splitlines() if not ci_local.PIP_INSTALL.match(line)]
    assert kept == ["anomcancel verify --all"]


@pytest.mark.parametrize("key", ["env", "if", "working-directory", "shell",
                                 "continue-on-error", "timeout-minutes"])
def test_a_step_key_it_would_not_honour_is_refused(key):
    step = "      - name: Tier-1 tests\n"
    assert step in TEXT
    with pytest.raises(ValueError, match=repr(key)):
        ci_local.read_steps(TEXT.replace(step, f"{step}        {key}: x\n", 1))


def test_reader_agrees_with_yaml():
    yaml = pytest.importorskip("yaml")
    steps = yaml.safe_load(TEXT)["jobs"]["tier1"]["steps"]
    assert all(set(step) <= set(ci_local.STEP_KEYS) for step in steps)
    assert STEPS == [{k: v for k, v in step.items() if k != "with"} for step in steps]
