"""tools/ci_steps.py reads each step's run: block out of the workflow by indentation; checked on
canned workflow text and on the real workflow, with nothing spawned."""
import importlib.util
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ci_steps", ROOT / "tools" / "ci_steps.py")
ci_steps = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ci_steps)

CANNED = """\
jobs:
  tests:
    steps:
      - uses: actions/checkout@v4
      - name: Inline
        run: echo one
      - name: Uses only
        uses: actions/setup-python@v5
        with:
          run: not a step key
      - name: Block
        env:
          A: b
        run: |
          cd "$RUNNER_TEMP"

          python3 -c '
          import sys
          if True:
              sys.exit(0)'

      - name: Last
        run: |
            indented more
              and more
  other:
    runs-on: ubuntu-latest
"""


def test_steps_reads_inline_and_block_runs_by_indentation():
    assert ci_steps.steps(CANNED) == {
        "Inline": "echo one\n",
        # the blank line inside stays, the trailing one goes; the python lines keep their
        # indentation relative to the block's first line
        "Block": "cd \"$RUNNER_TEMP\"\n\npython3 -c '\nimport sys\nif True:\n"
                 "    sys.exit(0)'\n",
        "Last": "indented more\n  and more\n",
    }


def test_an_empty_block_is_refused():
    with pytest.raises(ValueError, match="'Empty'"):
        ci_steps.steps("steps:\n  - name: Empty\n    run: |\n  - name: Next\n    run: x\n")


def test_steps_reads_the_real_workflow():
    text = ci_steps.WORKFLOW.read_text()
    found = ci_steps.steps(text)
    # every named step of this workflow has a run: key, right under its name
    assert len(found) == text.count("- name: ")
    for name in ("Console script", "Triangle bytes", "Verify report bytes", "Verify memory bound",
                 "Traced benchmark run"):
        assert found[name].count("\n") > 10
    for name, script in found.items():
        head = "      - name: %s\n        run: " % name
        assert head + script in text or head + "|\n" + textwrap.indent(script, " " * 10) in text
    assert found["Install the package"] == "pip install -e .\n"
    console = found["Console script"].splitlines()
    assert console[0] == 'test "$(ncstirling eval --n 6 --k 2 --alpha -5/2)" = "259/16"'
    assert console[-1].startswith('test "$(cat slow.txt)" = 99f92955')
    # the python program inside keeps its own indentation
    assert '\nif result["correct"] is not True:\n    sys.exit(' in found["Traced benchmark run"]
