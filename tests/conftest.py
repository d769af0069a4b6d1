import pytest

from common_cv import load_hospital_survival, load_mcv_surveys, pivotal
from common_cv.model import SampleSummary, Study


@pytest.fixture(autouse=True)
def empty_front_door_memo():
    """Each test starts with no results kept by the one-method front
    doors, so a result kept by one test never stands in for a patched
    engine in another."""
    pivotal._memo.clear()


@pytest.fixture(scope="session")
def surveys() -> Study:
    """Two-group summary-statistics study bundled with the package."""
    return load_mcv_surveys()


@pytest.fixture(scope="session")
def hospital() -> Study:
    """Four-group raw-data study bundled with the package."""
    return load_hospital_survival()


@pytest.fixture
def toy_study() -> Study:
    return Study(groups=(
        SampleSummary(n=10, mean=10.0, sd=2.0, label="a"),
        SampleSummary(n=15, mean=20.0, sd=3.0, label="b"),
    ))
