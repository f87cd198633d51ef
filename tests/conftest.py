import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--run-slow",
        action="store_true",
        default=False,
        help="also run tests marked slow (minutes of brute force)",
    )
    parser.addoption(
        "--run-network",
        action="store_true",
        default=False,
        help="also run tests marked network (they fetch from oeis.org)",
    )


def pytest_collection_modifyitems(config, items):
    for marker, option in (("slow", "--run-slow"), ("network", "--run-network")):
        if config.getoption(option):
            continue
        skip = pytest.mark.skip(reason=f"needs {option}")
        for item in items:
            if marker in item.keywords:
                item.add_marker(skip)
