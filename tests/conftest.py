"""Suite-wide test settings.

One hypothesis profile, loaded for every test: examples are derived from
each test's source rather than drawn at random (derandomize), so a run is
repeatable; no per-example deadline, because a kernel example can take a
large part of a second on a busy machine; a bounded example count, so the
property tests cost a fixed share of the suite's time; and no example
database.  Hypothesis also caches the constants it finds in local source
files, already while tests are collected; that cache goes to a temporary
directory removed when the run ends, so a run leaves no .hypothesis/
directory in the tree.
"""

import shutil
import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from tcbounds.macaulay import Form

settings.register_profile(
    "tcbounds", derandomize=True, deadline=None, max_examples=50, database=None
)
settings.load_profile("tcbounds")

_HYPOTHESIS_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    config.stash[_HYPOTHESIS_HOME] = tempfile.mkdtemp(prefix="tcbounds-hypothesis-")
    set_hypothesis_home_dir(config.stash[_HYPOTHESIS_HOME])


def pytest_unconfigure(config):
    shutil.rmtree(config.stash[_HYPOTHESIS_HOME], ignore_errors=True)


def monomial_form(v, exps, coeff=1):
    """The one-term form coeff * x^exps in v variables."""
    return Form.make(v, sum(exps), {tuple(exps): coeff})
