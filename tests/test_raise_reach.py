"""The raise-reach plugin's parts: where the raises are, which of them ran,
and which a session never reached."""

import importlib.util
import sys

import pytest

from raise_reach import RaiseTracer, raise_sites, unreached

MODULE = '''\
def check(value):
    if value is None: raise ValueError("missing")
    try:
        return int(value)
    except TypeError:
        raise ValueError(
            "not a number") from None
'''


@pytest.fixture
def package(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "mod.py").write_text(MODULE)
    return tmp_path / "pkg"


def test_unreached_names_the_site_no_test_hit():
    sites = {"/pkg/a.py": {3, 7}, "/pkg/b.py": {5}}
    executed = {("/pkg/a.py", 3), ("/pkg/b.py", 5)}
    assert unreached(sites, executed) == ["/pkg/a.py:7"]
    assert unreached(sites, executed | {("/pkg/a.py", 7)}) == []


def test_sites_are_the_first_lines_of_each_raise(package):
    [(path, lines)] = raise_sites(package).items()
    assert path.endswith("mod.py") and lines == {2, 6}


def test_a_bare_raise_is_refused(package):
    (package / "mod.py").write_text("try:\n    pass\nexcept ValueError:\n    raise\n")
    with pytest.raises(ValueError, match=r"mod.py:4: a bare raise cannot be traced"):
        raise_sites(package)


def test_tracer_records_only_the_raises_that_ran(package):
    spec = importlib.util.spec_from_file_location("raise_reach_probe", package / "mod.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    sites = raise_sites(package)
    tracer = RaiseTracer(sites)
    previous = sys.gettrace()  # the plugin's own tracer, when it is loaded
    sys.settrace(tracer.call)
    try:
        module.check(5)
        with pytest.raises(ValueError, match="not a number"):
            module.check([])
    finally:
        sys.settrace(previous)
    [path] = sites
    assert unreached(sites, tracer.executed) == [f"{path}:2"]
