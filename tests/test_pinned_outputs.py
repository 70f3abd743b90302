"""Byte-identity of the command-line outputs and the direct oracle counts.

Each case renders one output in-process and compares its sha256 with a
pinned value, so a change meant to keep every output the same (a
refactor, a deletion, a speed-up) shows here when it does not.  A change
that alters an output on purpose re-pins its hash and says why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from howe5 import cli, tables
from howe5.curve_models import COUNT_CAP
from howe5.howe_factory import direct_counts

# the largest field direct_counts is pinned over, below COUNT_CAP to keep
# the test fast
_DIRECT_LIMIT = 10 ** 6
assert _DIRECT_LIMIT <= COUNT_CAP


def _bundled_rows():
    return [params for n in (1, 2, 3) for params in tables.load_table(n)]


def _cli_text(*argvs) -> str:
    """stdout of cli.main for each argv in turn, with each exit code."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for argv in argvs:
            print(f"exit {cli.main(list(argv))}")
    return out.getvalue()


def _decompose_argv(params, *extra) -> list[str]:
    return ["decompose", "--p", str(params.mod.p), "--alpha1", str(params.alpha1),
            "--alpha2", str(params.alpha2), "--a", ",".join(map(str, params.a)),
            "--b", ",".join(map(str, params.b)), *extra]


def _direct_text() -> str:
    lines = []
    for params in _bundled_rows():
        p = params.mod.p
        for j in (1, 2, 3):
            if p ** j <= _DIRECT_LIMIT:
                lines.append(f"{params.row()} {j} {direct_counts(params, j)}")
    return "\n".join(lines)


OUTPUTS = {
    "verify-tables": lambda: _cli_text(["verify-tables"]),
    "verify-tables-deep": lambda: _cli_text(["verify-tables", "--deep"]),
    "selftest": lambda: _cli_text(["selftest"]),
    "decompose-text": lambda: _cli_text(*(_decompose_argv(params) for params in _bundled_rows())),
    "decompose-json": lambda: _cli_text(*(_decompose_argv(params, "--json", "--ext", "1",
                                                          "--ext", "2")
                                          for params in _bundled_rows())),
    "count": lambda: _cli_text(["count", "--p", "11", "--theta", "8", "--lambda", "6",
                                "--ext", "2"],
                               ["count", "--p", "11", "--alpha", "4", "--roots",
                                "5,3,10,7,6,8"]),
    "direct-counts": _direct_text,
}

PINNED = {
    "verify-tables": "92b38a525876add3df1ea68f6d3678306e064cb6f4c20750aed5bfd493be9f57",
    "verify-tables-deep": "90223c9ef09fc424d25bdacb997ce8b2a6390c2f9d7c4d667ceb9b36ee9dfa4b",
    "selftest": "126ef5bfd6060d975baa76dd2f58b8f25f37cc5a9e20ed70133de13a6dc9e7bf",
    "decompose-text": "56490948bf5281a14c2891039fccbc60d2984ff9493a345e939766b9030d8ca9",
    "decompose-json": "96b82b96546a0fd1073b9dda320c09e8164e077cde9827e9b0a57d21c2178998",
    "count": "d7f33ab34d0c3e52d9293dfb9a7271ee678dd95b683160c875f29a81ede2a055",
    "direct-counts": "058c8bb198140a2d9b04eb4900dfff28563741338e8f03a1c2278e6458492355",
}


@pytest.mark.parametrize("name", sorted(OUTPUTS))
def test_output_is_pinned(name):
    text = OUTPUTS[name]()
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED[name]
