import pytest
from hypothesis import settings

settings.register_profile("ci", derandomize=True, max_examples=60)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def fintop2():
    from topogen.instances.registry import builtin_fibration

    return builtin_fibration("fintop2")


@pytest.fixture(scope="session")
def fintop3():
    from topogen.instances.registry import builtin_fibration

    return builtin_fibration("fintop3")


@pytest.fixture(scope="session")
def grp_small():
    from topogen.instances.registry import builtin_fibration

    return builtin_fibration("grp_small")


@pytest.fixture(scope="session")
def disc2_loop():
    from topogen.instances.registry import builtin_fibration

    return builtin_fibration("disc2_loop")


def _endofunctor_record(name, endo):
    """The file record of an endofunctor: the inverse of
    ``fileformat.resolve_endofunctor``."""
    from topogen.harness.fileformat import EndofunctorRecord

    cat = endo.fib.category
    objs, mors = cat.object_names, cat.mor_names
    return EndofunctorRecord(
        name,
        endo.fib.name,
        endo.side,
        tuple((objs[x], objs[fx]) for x, fx in enumerate(endo.obj_map)),
        tuple((mors[f], mors[ff]) for f, ff in enumerate(endo.mor_map)),
        tuple((objs[x], mors[c]) for x, c in enumerate(endo.components)),
    )


@pytest.fixture(scope="session")
def endofunctor_record():
    return _endofunctor_record
