"""Start-up: the command line loads neither the oracle nor ``json``, and the
package still serves the oracle's names on first use."""

import pathlib
import subprocess
import sys

import pytest

import relival
import relival.semantics


def test_cli_import_skips_oracle_and_json():
    # -I keeps PYTHONPATH and the user's site out, so the parent directory of
    # the package under test goes on sys.path by hand
    parent = str(pathlib.Path(relival.__file__).resolve().parent.parent)
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {parent!r})\n"
        "import relival.cli\n"
        "print(sorted(m for m in ('relival.oracle', 'json') if m in sys.modules))\n"
        # the first read of relival.oracle loads it, through the package's __getattr__
        "import relival\n"
        "print(relival.oracle.__name__, 'relival.oracle' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60, check=True
    ).stdout
    assert out == "[]\nrelival.oracle True\n"


def test_oracle_names_resolve():
    assert relival.oracle.__name__ == "relival.oracle"
    assert relival.random_case is relival.oracle.random_case
    assert relival.sample_inclusion is relival.semantics.sample_inclusion
    assert relival.oracle.sample_inclusion is relival.semantics.sample_inclusion
    namespace = {}
    exec("from relival import *", namespace)
    assert namespace["random_case"] is relival.oracle.random_case
    assert namespace["RationalInterval"] is relival.oracle.RationalInterval


def test_lazy_names_are_the_oracle_exports():
    assert set(relival._ORACLE_NAMES) == set(relival.oracle.__all__)
    assert {"oracle", *relival.oracle.__all__} <= set(dir(relival))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        relival.no_such_name
