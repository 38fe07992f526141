"""Shared fixtures: canonical datasets and a hosted toolbox."""

import pytest

from repro.data import synthetic


@pytest.fixture(autouse=True)
def _reset_observability():
    """Keep the suite order-independent: every test starts and ends with
    an empty global metrics registry, a disabled, empty tracer, a
    disarmed chaos controller, and empty data-plane caches."""
    from repro import chaos, obs
    from repro.data import cache as datacache
    from repro.ws import client, container, payload

    def reset():
        obs.reset_metrics()
        obs.reset_tracing()
        chaos.uninstall()
        payload.set_enabled(True)
        payload.reset_payload_store()
        payload.set_shm_enabled(True)
        payload.reset_shm_segments()
        datacache.set_enabled(True)
        datacache.reset_parse_cache()
        client.reset_wsdl_cache()
        container.reset_result_cache()

    reset()
    yield
    reset()


@pytest.fixture()
def j48_fits(monkeypatch):
    """A list that grows by one each time any J48 is fitted."""
    from repro.ml.classifiers import J48

    fits, real_fit = [], J48.fit

    def counted(self, dataset):
        fits.append(dataset.relation)
        return real_fit(self, dataset)

    monkeypatch.setattr(J48, "fit", counted)
    return fits


@pytest.fixture(scope="session")
def breast_cancer():
    return synthetic.breast_cancer()


@pytest.fixture(scope="session")
def weather():
    return synthetic.weather_nominal()


@pytest.fixture(scope="session")
def weather_numeric():
    return synthetic.weather_numeric()


@pytest.fixture(scope="session")
def blobs():
    return synthetic.gaussians(n_clusters=3, n_per_cluster=40, seed=7)


@pytest.fixture(scope="session")
def blobs_labelled():
    return synthetic.gaussians(n_clusters=3, n_per_cluster=40,
                               labelled=True, seed=7)


@pytest.fixture(scope="session")
def baskets():
    return synthetic.baskets(n=250, seed=3)


@pytest.fixture(scope="session")
def two_class():
    return synthetic.numeric_two_class(n=160, seed=5)


@pytest.fixture(scope="session")
def hosted_toolbox():
    """One HTTP-hosted toolbox for the whole session (services are
    stateless or session-scoped internally)."""
    from repro.services import serve_toolbox
    host = serve_toolbox()
    yield host
    host.stop()
