"""Random command lines never end in a traceback.

Every input the CLI accepts or refuses must end in exit code 0, 2, 3 or
4 with a one-line message; argument errors raise SystemExit(2) from
argparse, which counts as exit code 2.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from sclflow.cli import main

EXIT_CODES = {0, 2, 3, 4}

ints = st.integers(-4, 4).map(str)
odd_tokens = st.sampled_from(["", "x", "1.5", "--", "0x3", "+-2", "2^3", " "])


@st.composite
def values_strings(draw):
    tokens = draw(st.lists(ints, max_size=4))
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), draw(odd_tokens))
    return ",".join(tokens)


@st.composite
def gadget_argv(draw):
    sub = draw(st.sampled_from(["subset", "table", "smallscl", "reduce", "essential"]))
    argv = ["gadget", sub, "--values=" + draw(values_strings())]
    if sub == "subset":
        argv.append("--variant=" + draw(
            st.sampled_from(["SS", "SSP", "VARSSP", "MIXEDSSP", "COSS"])))
    elif sub == "table":
        argv.append(f"--r={draw(st.integers(-1, 5))}")
    return argv


@st.composite
def bounds_argv(draw):
    n = draw(st.integers(2, 3))
    exps = st.sampled_from([-3, -2, -1, 1, 2, 3])
    xs = [draw(exps) for _ in range(n)]
    ys = [draw(exps) for _ in range(n)]
    if draw(st.booleans()):
        # balance the last block so that most words are in the domain
        xs[-1] -= sum(xs)
        ys[-1] -= sum(ys)
    return ["bounds", " ".join(f"a^{x} b^{y}" for x, y in zip(xs, ys))]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    err = err.getvalue()
    assert code in EXIT_CODES, (argv, code, err)
    assert "Traceback" not in err, (argv, err)


@settings(max_examples=120, deadline=None)
@given(gadget_argv())
def test_gadget_commands_exit_cleanly(argv):
    run(argv)


@settings(max_examples=60, deadline=None)
@given(bounds_argv())
def test_bounds_command_exits_cleanly(argv):
    run(argv)
