import os
import re
import subprocess
import sys
import types

import lpackets

PYPROJECT = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

PUBLIC_NAMES = {
    "BranchConstituent", "ChainStep", "HCParameter", "InfinitesimalCharacter",
    "KRestriction", "MinimalKTypeVerdict", "PacketMember", "PlacedParameter",
    "RestrictedParameter", "RestrictionClass", "Signature", "ThetaParabolic", "Weight",
    "blattner", "branch", "classify_restriction", "coherent_parameter", "degree",
    "descent_chain", "dual_parameter", "enumerate_packet", "expected_fraction", "extremes",
    "hodge_parameter", "infinitesimal_character", "interlaces", "isomorphism_fraction",
    "min_entry_in_a", "min_entry_in_a_everywhere", "minimal_ktype_test",
    "noncompact_support_matches", "pairing", "regularity_margin", "restrict_ktype",
    "restrict_parameter", "restriction_contains", "restriction_is_discrete_series", "rho",
    "rho_tilde", "shifted_weight", "shuffle_length", "theta_parabolic", "weight_from_strings",
    "weight_to_strings", "well_spaced", "well_spaced_everywhere", "weyl_dim",
}


def test_version_and_public_names():
    # Python 3.10 has no tomllib, so the version line is read by pattern.
    with open(PYPROJECT) as handle:
        declared = re.search(r'^version = "([^"]+)"$', handle.read(), re.M).group(1)
    assert lpackets.__version__ == declared == "0.7.0"
    exported = {name for name, value in vars(lpackets).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES


def test_cold_import_leaves_out_dataclasses_and_inspect():
    # Every cold `lpackets` request pays for what `lpackets.cli` imports;
    # -S keeps site packages out of the check.
    code = ("import sys, lpackets.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_cold_request_leaves_out_argparse():
    # A request the option table reads builds no parser, so neither
    # argparse nor its gettext is imported; help still comes from argparse.
    code = ("import sys, lpackets.cli; "
            "code = lpackets.cli.main(['packet', '--sig', '2,1', '--hw', '2,1,0']); "
            "print(code, sorted({'argparse', 'gettext'} & set(sys.modules)), file=sys.stderr)")
    env = {**os.environ, "PYTHONPATH": SRC}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert run.stdout.startswith("packet for sig (2,1)")
    assert run.stderr == "0 []\n"
    helped = subprocess.run([sys.executable, "-S", "-m", "lpackets", "packet", "-h"], env=env,
                            capture_output=True, text=True)
    assert helped.returncode == 0
    assert helped.stdout.startswith("usage: lpackets packet [-h]")
