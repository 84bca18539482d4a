"""Argv fuzzer for the command line.

Valid requests are built from the library side, for every subcommand, and
run in every spelling argparse accepts: "--opt=value", "--opt value",
each unique prefix of each option, and a shuffled option order. Each
spelling must give the same run, with exit 0 or 3 and no Python repr on
stderr, and the same namespace from the one-pass parse as from the full
parser. A request with one malformed value must exit 2 with exactly one
"error:" line. An argv that argparse rejects or answers itself must give
the full parser's exit code, output and error text.
"""

import contextlib
import io
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import format_weight

from lpackets import Signature, Weight, enumerate_packet, infinitesimal_character
from lpackets.cli import _parse, build_parser, main
from lpackets.commands import _COMMANDS, _COMMON, _parse_weight

FUZZ = settings(max_examples=40, derandomize=True, deadline=None)

# A traceback, a dataclass repr, or a tuple such as "(1, 2)" or "(1,)".
LEAK = re.compile(r"Traceback|Fraction\(|Signature\(|HCParameter\(|\([^()]*(, |,\))")
ENTRY = re.compile(r"-?\d+(/2)?")


def _run(argv, call=main):
    """(exit code, stdout, stderr) of one run, argparse's own exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def _prefixes(command):
    """Each option string of a subcommand to its unique proper prefixes."""
    flags = [flag for flag, _ in _COMMANDS[command].options + _COMMON] + ["--help"]
    return {flag: [flag[:k] for k in range(3, len(flag))
                   if sum(other.startswith(flag[:k]) for other in set(flags)) == 1]
            for flag in flags}


def _argv(command, options, names=None, joined=False):
    argv = [command]
    for k, (flag, value) in enumerate(options):
        name = names[k] if names else flag
        if value is None:
            argv.append(name)
        elif joined:
            argv.append(f"{name}={value}")
        else:
            argv += [name, value]
    return argv


def spellings(command, options, order):
    """Every spelling of one request. The shuffle keeps the order among
    options of one flag, since repeated --place options are places in order."""
    yield _argv(command, options, joined=True)
    yield _argv(command, options)
    slots = [options[k][0] for k in order]
    queues = {flag: [option for option in options if option[0] == flag] for flag in slots}
    yield _argv(command, [queues[flag].pop(0) for flag in slots])
    prefixes = _prefixes(command)
    for k in range(max(len(prefixes[flag]) for flag, _ in options)):
        names = [prefixes[flag][k % len(prefixes[flag])] if prefixes[flag] else flag
                 for flag, _ in options]
        yield _argv(command, options, names)


@st.composite
def dominant(draw, n, parity):
    """A non-increasing weight with n entries, integral or half-integral."""
    doubled = []
    for k in range(n):
        doubled.append(2 * draw(st.integers(-6, 6)) + parity if k == 0
                       else doubled[-1] - 2 * draw(st.integers(0, 3)))
    return Weight.from_doubled(doubled)


@st.composite
def signatures(draw, n, min_r=0):
    r = draw(st.integers(min_r, n))
    return Signature(r, n - r)


def _sig_text(sig):
    return f"{sig.r},{sig.s}"


@st.composite
def parameters(draw, sig):
    """A parameter of sig, read off a member of its packet."""
    hw = draw(dominant(sig.n, draw(st.integers(0, 1))))
    members = enumerate_packet(infinitesimal_character(hw), sig)
    hc = draw(st.sampled_from(members)).hc
    return format_weight(Weight.from_doubled(hc.doubled_a + hc.doubled_b), sig)


@st.composite
def places(draw, value, min_r=0):
    """1 or 2 places of equal rank, given as --place entries, as --sig with
    value (the option naming a place's text), or both; and the least r."""
    n = draw(st.integers(1, 4))
    sigs = draw(st.lists(signatures(n, min_r), min_size=1, max_size=2))
    texts = [draw(parameters(sig) if value == "--hcp"
                  else dominant(n, draw(st.integers(0, 1))).map(format_weight))
             for sig in sigs]
    options = [("--place", f"{_sig_text(sig)}:{text}") for sig, text in zip(sigs, texts)]
    if draw(st.booleans()):
        options[-1:] = [("--sig", _sig_text(sigs[-1])), (value, texts[-1])]
    return options, min(sig.r for sig in sigs)


@st.composite
def requests(draw):
    """(subcommand, [(option, value or None)]) of a valid request."""
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    n = draw(st.integers(1, 5))
    parity = draw(st.integers(0, 1))
    if command == "packet":
        sig = draw(signatures(n))
        options = [("--sig", _sig_text(sig)), ("--hw", format_weight(draw(dominant(n, parity))))]
    elif command == "sr":
        sig = draw(signatures(n))
        blocks = draw(dominant(sig.r, parity)).doubled + draw(dominant(sig.s, parity)).doubled
        options = [("--sig", _sig_text(sig)),
                   ("--ktype", format_weight(Weight.from_doubled(blocks), sig))]
    elif command == "branch":
        options = [("--hw", format_weight(draw(dominant(n, parity))))]
    elif command == "restrict":
        sig = draw(signatures(n, min_r=1))
        options = [("--sig", _sig_text(sig)), ("--hcp", draw(parameters(sig)))]
    elif command == "chain":
        options, least_r = draw(places("--hcp"))
        options.append(("--depth", str(draw(st.integers(0, least_r)))))
    elif command == "fraction":
        options = draw(places("--hw"))[0]
    else:
        options = draw(places("--hcp", min_r=1))[0]
    if draw(st.booleans()):
        options.append(("--format", draw(st.sampled_from(["pretty", "json", "tsv"]))))
    if draw(st.booleans()):
        options.append(("--strict", None))
    return command, options


@FUZZ
@given(st.data())
def test_every_spelling_of_a_valid_request_runs_alike(data):
    command, options = data.draw(requests())
    order = data.draw(st.permutations(range(len(options))))
    runs = [(argv, _run(argv)) for argv in spellings(command, options, order)]
    code, out, err = runs[0][1]
    assert code in (0, 3), (runs[0][0], err)
    assert not LEAK.search(err), err
    for argv, run in runs[1:]:
        assert run == runs[0][1], argv
    for argv, _ in runs:
        assert vars(_parse(argv)) == vars(build_parser().parse_args(argv)), argv


@pytest.mark.parametrize("argv", [
    [],
    ["-h"],
    ["bogus", "--sig", "1,1"],
    ["packet", "-h"],
    ["packet", "--sig", "1,1"],
    ["packet", "--sig", "1,1", "--hw"],
    ["packet", "--sig", "1,1", "--hw", "1,0", "--bogus"],
    ["branch", "--hw", "1,0", "extra"],
], ids=["empty", "help", "unknown-subcommand", "subcommand-help", "missing-option",
        "missing-value", "unknown-option", "extra-argument"])
def test_argparse_answers_as_the_full_parser(argv):
    # The full parser reports arguments the subcommand's parser leaves over
    # under the top-level usage, as "lpackets: error: ...".
    expected = _run(argv, build_parser().parse_args)
    assert expected[0] in (0, 2)
    assert _run(argv) == expected


MUTATIONS = ("wrong length", "singular", "a third", "a decimal", "r > n", "slash split")


def _mutate(kind, command, flag, value):
    """value with one defect of kind, or None where kind does not apply."""
    head, sep, text = value.partition(":") if flag == "--place" else ("", "", value)
    weighted = flag in ("--hw", "--ktype", "--hcp", "--place")
    if kind == "wrong length" and weighted and command != "branch":
        text += "0" if text.endswith(";") else ",0"
    elif kind == "singular" and flag in ("--hcp", "--place") and command != "fraction":
        a, b = _parse_weight(text)[1]
        if not (a and b):
            return None
        # Both blocks stay strictly decreasing; the b-block takes the a-block's top.
        b = sorted({*b[1:], a[0]}, reverse=True)
        text = format_weight(Weight.from_doubled(a + b), Signature(len(a), len(b)))
    elif kind in ("a third", "a decimal") and weighted:
        suffix = "/3" if kind == "a third" else ".5"
        text = ENTRY.sub(lambda m: m.group(0).partition("/")[0] + suffix, text, count=1)
    elif kind == "slash split" and flag in ("--hcp", "--ktype", "--place") and ";" in text:
        # ";" is the one block separator; "/" is read within an entry.
        text = text.replace(";", "/", 1)
    elif kind == "r > n" and flag in ("--sig", "--place"):
        r, s = map(int, (head or text).split(","))
        sig_text = f"{r + s + 1},-1"
        head, text = (sig_text, text) if head else ("", sig_text)
    else:
        return None
    return f"{head}{sep}{text}"


@FUZZ
@given(st.data())
def test_a_malformed_value_exits_2_with_one_error_line(data):
    command, options = data.draw(requests())
    # Every request has a weight, so "a third" always applies.
    k, mutated = data.draw(st.sampled_from([
        (k, mutated) for k, (flag, value) in enumerate(options) if value is not None
        for kind in MUTATIONS if (mutated := _mutate(kind, command, flag, value))]))
    options[k] = (options[k][0], mutated)
    order = data.draw(st.permutations(range(len(options))))
    runs = [(argv, _run(argv)) for argv in spellings(command, options, order)]
    code, out, err = runs[0][1]
    assert (code, out) == (2, ""), (runs[0][0], err)
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    assert not LEAK.search(err), err
    for argv, run in runs[1:]:
        assert run == runs[0][1], argv
    for argv, _ in runs:
        assert vars(_parse(argv)) == vars(build_parser().parse_args(argv)), argv
