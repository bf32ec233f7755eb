import importlib

import pytest

import plap

MODULES = ("energy", "errors", "geometry", "grid", "solver", "capacity",
           "verifiers")


# prints whether LAPACK is loaded, then the plap modules that are
SNAPSHOT = ("print('scipy.linalg._flapack' in sys.modules, *sorted(\n"
            "    m.partition('.')[2] for m in sys.modules\n"
            "    if m.startswith('plap.')))\n")
ALL_SEVEN = "True " + " ".join(sorted(MODULES))


def test_namespace_loads_on_use(tmp_path, fresh):
    # import plap executes no module; plap.verifiers that module and what
    # it imports, neither the solver nor LAPACK; the first public name
    # read all seven, as the eager import did, so a batch built from
    # public names has the whole library loaded before its first job
    code = ("import sys\n"
            "import plap\n"
            "assert not hasattr(plap, 'no_such_name')\n"
            "assert not hasattr(plap, '__wrapped__')\n"
            "assert plap.__version__ == '0.1.0'\n"
            + SNAPSHOT + "plap.verifiers\n"
            + SNAPSHOT + "plap.kappa\n"
            + SNAPSHOT)
    assert fresh(code, tmp_path) == [
        "False", "False energy errors geometry grid verifiers", ALL_SEVEN]


@pytest.mark.parametrize("code", [
    "from plap import EnergySpec\n",
    "from plap import *\n"
    "import plap\n"
    "assert all(globals()[n] is getattr(plap, n) for n in plap.__all__)\n",
], ids=["from-import", "star-import"])
def test_namespace_import_from_loads_all_seven(tmp_path, fresh, code):
    assert fresh("import sys\n" + code + SNAPSHOT, tmp_path) == [ALL_SEVEN]


def test_namespace_names_are_the_modules():
    assert len(plap.__all__) == len(set(plap.__all__)) == 60
    for module in MODULES:
        mod = importlib.import_module("plap." + module)
        assert getattr(plap, module) is mod
        for name in plap._EXPORTS[module]:
            assert getattr(plap, name) is getattr(mod, name), name
    assert set(plap.__all__) <= set(dir(plap))


def test_namespace_unknown_name():
    with pytest.raises(AttributeError,
                       match="module 'plap' has no attribute 'no_such_name'"):
        plap.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from plap import no_such_name  # noqa: F401
    # a library module's helper is no package name
    with pytest.raises(AttributeError, match="'dump_csv'"):
        plap.dump_csv
