"""The J48 service's model memo: bounded, content-keyed, thread-safe.

Two interactive sessions on one harness instance must each keep their
model (the §4.5 harness's whole point), a concurrent request must never
get another dataset's tree, and the memo must survive the serialize
lifecycle's pickle round trip.
"""

import pickle
import sys
import threading

import pytest

from repro.data import arff, cache
from repro.ml.classifiers import J48
from repro.services.j48_service import MODEL_MEMO_ENTRIES, J48Service
from repro.ws import ServiceContainer


@pytest.fixture(scope="module")
def documents(breast_cancer):
    """MODEL_MEMO_ENTRIES + 1 distinct ARFF documents, one tree each."""
    return [arff.dumps(breast_cancer.subset(range(60 + 10 * k)))
            for k in range(MODEL_MEMO_ENTRIES + 1)]


def in_process_tree(text: str) -> str:
    dataset = arff.loads(text)
    dataset.set_class("Class")
    return J48().fit(dataset).to_text()


def test_bound_is_no_larger_than_the_parse_memo():
    assert MODEL_MEMO_ENTRIES <= cache.PARSE_CACHE_ENTRIES
    assert J48Service()._models.max_entries == MODEL_MEMO_ENTRIES


def test_alternating_sessions_fit_once_each(documents, j48_fits):
    service = J48Service()
    a, b = documents[:2]
    answers = [service.classify(text, "Class") for text in (a, b, a, b)]
    assert len(j48_fits) == 2
    assert answers[0] == answers[2] and answers[1] == answers[3]
    assert answers[0] != answers[1]


def test_entry_past_the_bound_evicts_the_least_recently_used(documents,
                                                             j48_fits):
    service = J48Service()
    for text in documents[:MODEL_MEMO_ENTRIES]:
        service.classify(text, "Class")
    service.classify(documents[0], "Class")  # now the most recent
    assert len(j48_fits) == MODEL_MEMO_ENTRIES
    service.classify(documents[MODEL_MEMO_ENTRIES], "Class")  # evicts [1]
    assert len(service._models) == MODEL_MEMO_ENTRIES
    service.classify(documents[0], "Class")
    assert len(j48_fits) == MODEL_MEMO_ENTRIES + 1  # [0] survived
    service.classify(documents[1], "Class")
    assert len(j48_fits) == MODEL_MEMO_ENTRIES + 2  # [1] was refitted


def test_options_and_class_attribute_are_part_of_the_key(documents,
                                                         j48_fits):
    service = J48Service()
    text = documents[0]
    pruned = service.classify(text, "Class")
    unpruned = service.classify(text, "Class", {"unpruned": True})
    service.classify(text, "Class", {"unpruned": True})
    assert len(j48_fits) == 2
    assert pruned == in_process_tree(text) and unpruned != pruned


class _StallingName(str):
    """A class-attribute name whose first comparison stalls until
    *release* is set (or *timeout* passes): it holds a memo lookup open
    at the moment it compares keys."""

    __hash__ = str.__hash__

    def __new__(cls, value, stalled, release, timeout):
        self = super().__new__(cls, value)
        self.stalled, self.release, self.timeout = stalled, release, timeout
        return self

    def __eq__(self, other):
        if not self.stalled.is_set():
            self.stalled.set()
            self.release.wait(self.timeout)
        return str.__eq__(self, other)


def test_key_and_model_are_read_and_stored_as_one_step(documents):
    """A lookup stalled mid-comparison while another session stores its
    model must still answer with its own model: the key it matched and
    the model it returns are one entry, not two attributes read apart."""
    a, b = documents[:2]
    service = J48Service()
    own = service._fit(a, "Class", None)
    stalled, stored = threading.Event(), threading.Event()
    name = _StallingName("Class", stalled, stored, timeout=0.5)
    box = {}

    def lookup():
        box["model"] = service._fit(a, name, None)

    reader = threading.Thread(target=lookup)
    reader.start()
    assert stalled.wait(30)
    service._fit(b, "Class", None)  # the other session's miss and store
    stored.set()
    reader.join(30)
    assert not reader.is_alive()
    assert box["model"] is own


def test_concurrent_sessions_on_one_harness_get_their_own_tree(documents):
    """Regression: two threads on one harness instance, alternating
    datasets; every answer must be the tree fitted in-process."""
    texts = documents[:4]
    expected = [in_process_tree(text) for text in texts]
    container = ServiceContainer("memo-race")
    container.deploy(J48Service, "J48", lifecycle="harness")
    wrong, start = [], threading.Barrier(2, timeout=30)

    def session(offset):
        start.wait()
        for i in range(60):
            k = (i + offset) % len(texts)
            answer = container.call("J48", "classify", dataset=texts[k],
                                    attribute="Class")
            if answer != expected[k]:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        threads = [threading.Thread(target=session, args=(offset,))
                   for offset in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_serialize_lifecycle_round_trips_the_memo(tmp_path, documents,
                                                  j48_fits):
    container = ServiceContainer(state_dir=tmp_path)
    container.deploy(J48Service, "J48", lifecycle="serialize")
    a, b = documents[:2]
    for text in (a, b, a, b):
        container.call("J48", "classify", dataset=text, attribute="Class")
    assert len(j48_fits) == 2  # the memo came back from disk each call
    stats = container.stats("J48")
    assert stats.serialize_seconds > 0
    assert stats.serialized_bytes > 1000


def test_lru_cache_pickles_without_its_lock():
    memo = cache.LruCache(2)
    memo.put("a", 1)
    memo.put("b", 2)
    copy = pickle.loads(pickle.dumps(memo))
    assert copy.get("a") == 1  # recency survives: "b" is now the LRU
    copy.put("c", 3)
    assert "b" not in copy and len(copy) == 2
    assert copy._lock is not memo._lock
    assert memo.get("b") == 2  # the original is untouched
