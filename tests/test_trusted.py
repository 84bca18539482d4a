"""Values built without a second check, and the checks that stay.

The library builds infinitesimal characters, packet shuffles, dual
parameters, a parameter's weight, coherent and Blattner weights, K-type
splits, branch constituents, the minimal K-type test's derived values,
the parabolic's root sum and the descended parameters of a chain without
checking them again: one at a time through
the `_trusted` constructors and many at once through `_fill`, both of
`_Frozen`, which store the slot values as they are. These tests rebuild
every such value through its public, checking constructor over the packet
and counting sweeps, pin the places that may call `_trusted` or `_fill`,
pin `_Frozen` as the only code that stores into a value type (through a
slot setter, by name, or into a bare `__new__` instance), pin that every
checking class writes its own constructor (so `_Frozen` compiles a storing
one only for the records), and pin the checks the public constructors
keep.
"""

import ast
import inspect
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import assert_rebuild_together, assert_rebuilds, counting_sweep, packet_sweep_characters

import lpackets
from lpackets import (
    HCParameter,
    InfinitesimalCharacter,
    KRestriction,
    PlacedParameter,
    RestrictedParameter,
    Signature,
    Weight,
    blattner,
    branch,
    coherent_parameter,
    descent_chain,
    dual_parameter,
    enumerate_packet,
    minimal_ktype_test,
    restrict_ktype,
    shifted_weight,
    theta_parabolic,
)

# The unchecked constructors `_Frozen` provides: `_trusted`, and `_fill`,
# which builds many values at once.
TRUSTED_NAMES = {"_trusted", "_fill"}

# (module, enclosing function) of every use of an unchecked constructor in
# the package.
TRUSTED_SITES = {
    ("cartan.py", "Weight.from_doubled"),  # after its own parity check
    ("packets.py", "HCParameter.from_doubled"),  # after its own checks
    ("packets.py", "infinitesimal_character"),  # the rho-shift, after its order check
    ("packets.py", "enumerate_packet"),  # shuffles, in bulk
    ("packets.py", "coherent_parameter"),
    ("packets.py", "blattner"),
    ("packets.py", "dual_parameter"),
    ("packets.py", "HCParameter.weight"),  # the blocks of a checked parameter
    ("branching.py", "branch"),  # lower weights and constituents, in bulk
    ("branching.py", "restrict_ktype"),  # slices of its weight, after the checks of _blocks
    ("descent.py", "descent_chain"),  # each step, after its regularity test
    ("minimal_ktype.py", "shifted_weight"),
    ("minimal_ktype.py", "theta_parabolic"),  # a root sum: even doubled entries
    ("minimal_ktype.py", "minimal_ktype_test"),  # accepted hc
}


# (module, enclosing function) of every direct store into a value type: the
# compiler of the stores and `_fill`, both in `_Frozen`, and nothing else.
STORE_SITES = {
    ("cartan.py", "_Frozen.__init_subclass__"),
    ("cartan.py", "_Frozen._fill"),
}


def _is_store(node: ast.AST) -> bool:
    """A slot setter (`X.doubled.__set__`, whatever X or the slot), a bare
    instance (`object.__new__`, or any `__new__`, called or not), or a store
    by name (`object.__setattr__`, `setattr`)."""
    if isinstance(node, ast.Attribute):
        return node.attr in ("__set__", "__new__", "__setattr__")
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "setattr")


def _sites(path: Path) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """(uses of an unchecked constructor, direct stores), each as (module,
    enclosing function)."""
    trusted, stores = [], []

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        if isinstance(node, ast.Attribute) and node.attr in TRUSTED_NAMES:
            trusted.append((path.name, ".".join(scope)))
        if _is_store(node):
            stores.append((path.name, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
            else:
                visit(child, scope)

    visit(ast.parse(path.read_text()), ())
    return trusted, stores


def check_member(sig, member) -> int:
    """Rebuild everything derived from one packet member, its K-type split
    included; returns the number of branch constituents checked. A value
    equal to a rebuilt one (same stored tuples) needs no rebuild of its
    own."""
    # The member computes its Blattner and coherent weights on each access.
    hc, mu, coherent = member.hc, member.blattner, member.coherent
    verdict = minimal_ktype_test(mu, sig)
    for value in (hc, hc.weight, mu, coherent, dual_parameter(hc),
                  verdict.mu_shifted, theta_parabolic(mu).two_rho_u):
        assert_rebuilds(value)
    assert blattner(hc) == mu
    assert coherent_parameter(hc) == coherent
    assert shifted_weight(mu, sig) == verdict.mu_shifted
    if verdict.accepted:
        assert verdict.hc == hc
    if sig.r == 0:
        return 0
    assert_rebuilds(restrict_ktype(mu, sig))
    constituents = branch(Weight.from_doubled(mu.doubled[: sig.r]))
    assert_rebuild_together(c.lower for c in constituents)
    return len(constituents)


def check_chains(places, packets) -> int:
    """Rebuild every step of the chains, taken to depth min r, of the placed
    parameters whose places hold member k of each packet (cycling through
    the shorter packets), for every k; returns the number of steps."""
    depth = min(sig.r for sig, _ in places)
    steps = 0
    with warnings.catch_warnings():
        # A chain that turns singular stops early, with a warning.
        warnings.simplefilter("ignore")
        for k in range(max(map(len, packets))):
            p = PlacedParameter((sig, packet[k % len(packet)].hc)
                                for (sig, _), packet in zip(places, packets))
            for step in descent_chain(p, depth, warn=False):
                assert_rebuilds(step.parameter)
                steps += 1
    return steps


class TestRebuildOracle:
    def test_packet_sweep(self):
        members = constituents = 0
        for sig, ic in packet_sweep_characters():
            assert_rebuilds(ic)
            for member in enumerate_packet(ic, sig):
                constituents += check_member(sig, member)
                members += 1
        assert members == 5100
        assert constituents == 469_723

    def test_counting_sweep(self):
        members = constituents = steps = 0
        for places in counting_sweep():
            packets = []
            for sig, ic in places:
                assert_rebuilds(ic)
                packets.append(enumerate_packet(ic, sig))
                for member in packets[-1]:
                    constituents += check_member(sig, member)
                    members += 1
            steps += check_chains(places, packets)
        assert members == 9708
        assert constituents == 781_302
        assert steps == 14_731

    def test_oracle_catches_a_bad_value(self):
        bad_weight = Weight._trusted((2, 1))
        with pytest.raises(ValueError, match="mixed half-integrality"):
            assert_rebuilds(bad_weight)
        with pytest.raises(ValueError, match="mixed half-integrality"):
            assert_rebuild_together([bad_weight])
        with pytest.raises(ValueError, match="not strictly decreasing"):
            assert_rebuilds(HCParameter._trusted((2, 4), ()))
        with pytest.raises(ValueError, match="singular"):
            assert_rebuilds(HCParameter._trusted((4,), (4,)))
        with pytest.raises(ValueError, match="singular"):
            hcs = HCParameter._fill("doubled_a", [(6,), (4,)])
            assert_rebuilds(HCParameter._fill("doubled_b", [(2,), (4,)], hcs)[1])
        with pytest.raises(AssertionError):
            assert_rebuilds(Weight._trusted([2, 4]))
        with pytest.raises(ValueError, match="not strictly decreasing"):
            assert_rebuilds(InfinitesimalCharacter._trusted(Weight._trusted((2, 4))))
        with pytest.raises(ValueError, match="mixed half-integrality"):
            assert_rebuilds(KRestriction._trusted(Weight((5,)), 3, Weight((-2,))))
        with pytest.raises(ValueError, match="singular"):
            assert_rebuilds(PlacedParameter._trusted(
                ((Signature(1, 1), HCParameter._trusted((4,), (4,))),)))
        with pytest.raises(ValueError, match="does not match signature"):
            assert_rebuilds(PlacedParameter._trusted(
                ((Signature(2, 0), HCParameter((2,), (1,))),)))


def _package_sites() -> tuple[set, set]:
    package = Path(lpackets.__file__).parent
    trusted, stores = set(), set()
    for path in sorted(package.glob("*.py")):
        found_trusted, found_stores = _sites(path)
        trusted.update(found_trusted)
        stores.update(found_stores)
    return trusted, stores


class TestTrustedSites:
    def test_call_sites_are_allowlisted(self):
        found, _ = _package_sites()
        assert found - TRUSTED_SITES == set(), "unlisted _trusted or _fill call site"
        assert TRUSTED_SITES - found == set(), "allowlisted site no longer calls them"

    def test_direct_stores_stay_in_the_constructors(self):
        _, found = _package_sites()
        assert found - STORE_SITES == set(), "direct store outside _Frozen"
        assert STORE_SITES - found == set(), "allowlisted _Frozen method no longer stores"

    @pytest.mark.parametrize("source", [
        "def f(w):\n    Weight.doubled.__set__(w, (2,))",
        "def f(hc):\n    HCParameter.doubled_a.__set__(hc, ())",
        "def f(hc):\n    type(hc).doubled_b.__set__(hc, ())",
        "def f():\n    return object.__new__(Weight)",
        "def f():\n    return Weight.__new__(HCParameter)",
        "class Weight:\n    def g(cls):\n        return object.__new__(cls)",
        "def f(w):\n    object.__setattr__(w, 'doubled', (2,))",
        "def f(w):\n    setattr(w, 'doubled_b', ())",
        # Every value type and slot is covered, and an alias of `__new__` is
        # a store where it is taken.
        "class KRestriction:\n    def g(cls):\n        return object.__new__(cls)",
        "def f(m):\n    PacketMember.hc.__set__(m, None)",
        "def f():\n    new = object.__new__",
    ])
    def test_each_store_form_is_seen(self, source, tmp_path):
        path = tmp_path / "planted.py"
        path.write_text(source)
        _, stores = _sites(path)
        assert len(stores) == 1 and stores[0][1] in ("f", "Weight.g", "KRestriction.g")

    @pytest.mark.parametrize("call", ["HCParameter._trusted((2,), ())",
                                      "HCParameter._fill('doubled_a', [(2,)])"])
    def test_each_trusted_constructor_is_seen(self, call, tmp_path):
        path = tmp_path / "planted.py"
        path.write_text(f"def f():\n    return {call}\n")
        assert _sites(path) == ([("planted.py", "f")], [])

    @pytest.mark.parametrize("cls", [Signature, Weight, HCParameter, InfinitesimalCharacter,
                                     PlacedParameter, KRestriction], ids=lambda cls: cls.__name__)
    def test_checking_classes_write_their_constructors(self, cls):
        # `_Frozen` compiles an `__init__` that stores its arguments as given
        # for a class whose body defines none; a checking class must never
        # get one, so its body defines `__init__` and that is what runs.
        source = Path(inspect.getfile(cls))
        body = next(node for node in ast.parse(source.read_text()).body
                    if isinstance(node, ast.ClassDef) and node.name == cls.__name__)
        assert "__init__" in {node.name for node in body.body if isinstance(node, ast.FunctionDef)}
        assert cls.__init__.__code__.co_filename == str(source)


class TestPublicChecks:
    """The public constructors keep every check and every message."""

    def test_weight(self):
        with pytest.raises(ValueError, match=r"mixed half-integrality in weight \(1,1/2\)"):
            Weight((1, Fraction(1, 2)))
        with pytest.raises(ValueError, match=r"mixed half-integrality in weight \(1,1/2\)"):
            Weight.from_doubled((2, 1))
        with pytest.raises(ValueError, match="is not a half-integer"):
            Weight((Fraction(1, 3),))

    @pytest.mark.parametrize("build", [
        lambda a, b: HCParameter.from_doubled(a, b),
        lambda a, b: HCParameter([Fraction(x, 2) for x in a], [Fraction(x, 2) for x in b]),
    ])
    def test_hc_parameter(self, build):
        with pytest.raises(ValueError, match=r"mixed half-integrality in weight \(2,1/2,0\)"):
            build((4, 1), (0,))
        with pytest.raises(ValueError, match=r"a-block \(1,2\) is not strictly decreasing"):
            build((2, 4), (0,))
        with pytest.raises(ValueError, match=r"b-block \(0,1\) is not strictly decreasing"):
            build((4,), (0, 2))
        with pytest.raises(ValueError, match=r"parameter \(2;2\) is singular"):
            build((4,), (4,))

    def test_k_restriction_has_no_unchecked_constructor(self):
        # A split is built by `restrict_ktype` or by `KRestriction(head, u1, tail)`.
        assert not hasattr(KRestriction, "from_doubled")

    def test_prime_hc_keeps_checking(self):
        # Off the spacing hypothesis the descended blocks can collide, so the
        # descended parameter is built through the checking `from_doubled`.
        collided = RestrictedParameter(doubled_a=(5,), doubled_b=(5,), doubled_u1=0)
        with pytest.raises(ValueError, match=r"parameter \(5/2;5/2\) is singular"):
            HCParameter.from_doubled(collided.doubled_a, collided.doubled_b)
        unordered = RestrictedParameter(doubled_a=(1, 3), doubled_b=(), doubled_u1=0)
        with pytest.raises(ValueError, match="not strictly decreasing"):
            HCParameter.from_doubled(unordered.doubled_a, unordered.doubled_b)
