"""Service-layer tests over real HTTP (one hosted toolbox per session)."""

import pytest

from repro.data import arff, csvio, synthetic
from repro.ws import ServiceProxy, SoapFault


@pytest.fixture(scope="module")
def proxies(hosted_toolbox):
    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = ServiceProxy.from_wsdl_url(
                hosted_toolbox.wsdl_url(name))
        return cache[name]

    yield get
    for proxy in cache.values():
        proxy.close()


@pytest.fixture(scope="module")
def bc_arff(breast_cancer):
    return arff.dumps(breast_cancer)


class TestClassifierService:
    def test_get_classifiers_families(self, proxies):
        classifiers = proxies("Classifier").getClassifiers()
        names = {c["name"] for c in classifiers}
        assert {"J48", "NaiveBayes", "IB1"} <= names
        families = {c["family"] for c in classifiers}
        assert {"trees", "rules", "bayes", "lazy", "functions",
                "meta"} <= families

    def test_get_options_j48(self, proxies):
        options = proxies("Classifier").getOptions(classifier="J48")
        names = {o["name"] for o in options}
        assert {"confidence", "min_obj", "unpruned"} <= names

    def test_get_options_preset_default(self, proxies):
        options = proxies("Classifier").getOptions(classifier="IB5")
        k = next(o for o in options if o["name"] == "k")
        assert k["default"] == 5

    def test_get_options_unknown(self, proxies):
        with pytest.raises(SoapFault):
            proxies("Classifier").getOptions(classifier="Zorp")

    def test_classify_instance(self, proxies, bc_arff):
        out = proxies("Classifier").classifyInstance(
            classifier="J48", dataset=bc_arff, attribute="Class")
        assert out["num_instances"] == 286
        assert "node-caps" in out["model_text"]
        assert out["training_accuracy"] > 0.7

    def test_classify_with_options(self, proxies, bc_arff):
        out = proxies("Classifier").classifyInstance(
            classifier="J48", dataset=bc_arff, attribute="Class",
            options={"unpruned": True})
        assert "unpruned tree" in out["model_text"]

    def test_classify_bad_attribute(self, proxies, bc_arff):
        with pytest.raises(SoapFault):
            proxies("Classifier").classifyInstance(
                classifier="J48", dataset=bc_arff, attribute="nope")

    def test_cross_validate(self, proxies, bc_arff):
        out = proxies("Classifier").crossValidate(
            classifier="NaiveBayes", dataset=bc_arff, attribute="Class",
            folds=5)
        assert 0.6 < out["accuracy"] < 1.0
        assert len(out["confusion"]) == 2

    def test_predict_labels(self, proxies, breast_cancer):
        train, test = breast_cancer.split(0.7, 4)
        out = proxies("Classifier").predict(
            classifier="J48", train=arff.dumps(train),
            test=arff.dumps(test), attribute="Class")
        assert len(out["labels"]) == len(test)
        assert set(out["labels"]) <= {"no-recurrence-events",
                                      "recurrence-events"}
        assert out["accuracy"] > 0.6

    def test_classify_graph(self, proxies, bc_arff):
        out = proxies("Classifier").classifyGraph(
            classifier="J48", dataset=bc_arff, attribute="Class")
        assert out["graph"]["nodes"][0]["label"] == "node-caps"

    def test_graph_unsupported_classifier(self, proxies, bc_arff):
        with pytest.raises(SoapFault):
            proxies("Classifier").classifyGraph(
                classifier="NaiveBayes", dataset=bc_arff,
                attribute="Class")


class TestStreamingOperations:
    def test_stream_training_roundtrip(self, proxies, breast_cancer,
                                       bc_arff):
        data = proxies("Data")
        clf = proxies("Classifier")
        opened = data.openStream(dataset=bc_arff, chunk_size=64)
        session = clf.beginStream(classifier="NaiveBayesUpdateable",
                                  header=opened["header"],
                                  attribute="Class")
        total = 0
        for i in range(opened["chunks"]):
            chunk = data.readChunk(stream_id=opened["stream"], index=i)
            total += clf.updateStream(session=session, chunk=chunk)
        result = clf.finishStream(session=session)
        data.closeStream(stream_id=opened["stream"])
        assert total == 286
        assert result["instances"] == 286
        assert "Naive Bayes" in result["model_text"]

    def test_streaming_matches_batch(self, proxies, breast_cancer,
                                     bc_arff):
        """Streamed NB must equal batch NB (same sufficient statistics)."""
        from repro.ml.classifiers import NaiveBayes
        batch = NaiveBayes().fit(breast_cancer)
        data = proxies("Data")
        clf = proxies("Classifier")
        opened = data.openStream(dataset=bc_arff, chunk_size=50)
        session = clf.beginStream(classifier="NaiveBayesUpdateable",
                                  header=opened["header"],
                                  attribute="Class")
        for i in range(opened["chunks"]):
            clf.updateStream(session=session, chunk=data.readChunk(
                stream_id=opened["stream"], index=i))
        result = clf.finishStream(session=session)
        data.closeStream(stream_id=opened["stream"])
        assert result["model_text"].split("\n", 2)[-1] == \
            batch.to_text().split("\n", 2)[-1]

    def test_non_incremental_rejected(self, proxies, bc_arff, breast_cancer):
        header = arff.header_of(breast_cancer)
        with pytest.raises(SoapFault):
            proxies("Classifier").beginStream(
                classifier="J48", header=header, attribute="Class")

    def test_unknown_session(self, proxies):
        with pytest.raises(SoapFault):
            proxies("Classifier").updateStream(session="nope", chunk="")


class TestJ48Service:
    def test_classify_text(self, proxies, bc_arff):
        text = proxies("J48").classify(dataset=bc_arff, attribute="Class")
        assert "node-caps" in text and "Number of Leaves" in text

    def test_classify_graph_root(self, proxies, bc_arff):
        out = proxies("J48").classifyGraph(dataset=bc_arff,
                                           attribute="Class")
        assert out["root_attribute"] == "node-caps"

    def test_classify_dot(self, proxies, bc_arff):
        dot = proxies("J48").classifyDot(dataset=bc_arff,
                                         attribute="Class")
        assert dot.startswith("digraph")

    def test_model_memo_tells_colliding_documents_apart(self, breast_cancer):
        """The model memo is keyed by document content: two documents
        whose ``hash()`` collide must not share a tree."""
        from repro.services.j48_service import J48Service

        class Colliding(str):
            __hash__ = lambda self: 42  # noqa: E731

        cancer = Colliding(arff.dumps(breast_cancer))
        subset = Colliding(arff.dumps(breast_cancer.subset(range(80))))
        assert hash(cancer) == hash(subset)
        service = J48Service()
        assert "(228.388/" in service.classify(cancer, "Class")
        assert service.classify(subset, "Class") \
            == J48Service().classify(subset, "Class")
        first = service._fit(subset, "Class", None)
        service.classify(Colliding(subset), "Class")
        # equal content still hits: the same tree, no new entry
        assert service._fit(Colliding(subset), "Class", None) is first
        assert len(service._models) == 2


class TestClustererServices:
    def test_cobweb_cluster(self, proxies, blobs):
        text = proxies("Cobweb").cluster(dataset=arff.dumps(blobs))
        assert "Cobweb tree" in text

    def test_cobweb_graph(self, proxies, blobs):
        out = proxies("Cobweb").getCobwebGraph(dataset=arff.dumps(blobs))
        assert out["n_clusters"] >= 2
        assert len(out["graph"]["nodes"]) >= 3

    def test_general_clusterer(self, proxies, blobs):
        out = proxies("Clusterer").cluster(
            clusterer="SimpleKMeans", dataset=arff.dumps(blobs),
            options={"k": 3})
        assert out["n_clusters"] == 3
        assert len(out["assignments"]) == len(blobs)

    def test_get_clusterers(self, proxies):
        names = {c["name"] for c in proxies("Clusterer").getClusterers()}
        assert {"SimpleKMeans", "Cobweb", "EM", "DBSCAN"} <= names


class TestAssociationService:
    def test_associate(self, proxies, baskets):
        out = proxies("Association").associate(
            associator="Apriori", dataset=arff.dumps(baskets),
            options={"min_support": 0.1, "min_confidence": 0.7})
        assert out["num_rules"] > 0
        first = out["rules"][0]
        assert first["confidence"] >= 0.7
        assert "==>" in out["rules_text"]

    def test_get_associators(self, proxies):
        names = {a["name"] for a in
                 proxies("Association").getAssociators()}
        assert {"Apriori", "FPGrowth"} <= names


class TestAttributeSelectionService:
    def test_approaches(self, proxies):
        approaches = proxies("AttributeSelection").getApproaches()
        assert len(approaches) >= 20
        assert any("GeneticSearch" in a["name"] for a in approaches)

    def test_genetic_select(self, proxies, bc_arff):
        out = proxies("AttributeSelection").select(
            dataset=bc_arff, attribute="Class",
            approach="GeneticSearch+CfsSubset")
        assert "node-caps" in out["selected"]
        projected = arff.loads(out["dataset"])
        assert projected.num_instances == 286

    def test_rank(self, proxies, bc_arff):
        ranking = proxies("AttributeSelection").rank(
            dataset=bc_arff, attribute="Class")
        assert ranking[0][0] == "node-caps"


class TestDataService:
    def test_convert_and_validate(self, proxies, bc_arff):
        data = proxies("Data")
        csv = data.convert(document=bc_arff, source="arff", target="csv")
        back = data.convert(document=csv, source="csv", target="arff")
        info = data.validate(dataset=back)
        assert info["num_instances"] == 286

    def test_summarise_figure3(self, proxies, bc_arff):
        out = proxies("Data").summarise(dataset=bc_arff)
        assert out["num_instances"] == 286
        assert out["missing_values"] == 9
        assert "Num Instances:  286" in out["text"]

    def test_repository_roundtrip(self, proxies, bc_arff):
        data = proxies("Data")
        url = data.publishDataset(name="bc-test", dataset=bc_arff)
        fetched = data.readURL(url=url)
        assert arff.loads(fetched).num_instances == 286

    def test_read_url_over_http(self, proxies, hosted_toolbox):
        # the services index itself is a fetchable URL
        data = proxies("Data")
        with pytest.raises(SoapFault):
            data.readURL(url="repo:never-published")

    def test_list_conversions(self, proxies):
        pairs = proxies("Data").listConversions()
        assert ["csv", "arff"] in pairs


class TestVisualisationServices:
    def test_plot3d_returns_ppm(self, proxies):
        surf = synthetic.surface3d(n=12)
        img = proxies("Math").plot3D(points=csvio.dumps(surf))
        assert isinstance(img, bytes)
        assert img.startswith(b"P6")

    def test_math_statistics(self, proxies):
        stats = proxies("Math").statistics(points="a,b\n1,2\n3,4\n")
        assert stats["a"]["mean"] == pytest.approx(2.0)

    def test_math_tabulate(self, proxies):
        table = proxies("Math").tabulate(expression="square", lo=0,
                                         hi=2, steps=3)
        assert table == [[0.0, 0.0], [1.0, 1.0], [2.0, 4.0]]

    def test_math_tabulate_unknown(self, proxies):
        with pytest.raises(SoapFault):
            proxies("Math").tabulate(expression="bessel")

    def test_plot_scatter_dumb(self, proxies):
        csv = "x,y\n" + "\n".join(f"{i},{i * i}" for i in range(10))
        out = proxies("Plot").plotScatter(points=csv, title="sq")
        assert "*" in out

    def test_plot_scatter_svg(self, proxies):
        csv = "x,y\n1,1\n2,4\n3,9\n"
        out = proxies("Plot").plotScatter(points=csv, terminal="svg")
        assert out.startswith("<svg")

    def test_plot_histogram(self, proxies):
        out = proxies("Plot").plotHistogram(labels=["a", "b"],
                                            counts=[3, 7])
        assert "#" in out

    def test_tree_visualizer(self, proxies, bc_arff):
        graph = proxies("J48").classifyGraph(
            dataset=bc_arff, attribute="Class")["graph"]
        svg = proxies("TreeVisualizer").plotTree(graph=graph,
                                                 format="svg")
        assert svg.startswith("<svg") and "node-caps" in svg
        text = proxies("TreeVisualizer").plotTree(graph=graph,
                                                  format="text")
        assert "node-caps" in text


class TestRegistryIntegration:
    def test_all_toolbox_services_published(self, proxies, hosted_toolbox):
        entries = proxies("Registry").inquire(pattern="*")
        names = {e["name"] for e in entries}
        assert {"Classifier", "J48", "Cobweb", "Data", "Math",
                "Plot"} <= names

    def test_discover_then_invoke(self, proxies, hosted_toolbox, bc_arff):
        """Full UDDI flow: inquire -> WSDL -> invoke."""
        entry = proxies("Registry").lookup(name="J48")
        proxy = ServiceProxy.from_wsdl_url(entry["wsdl_url"])
        text = proxy.classify(dataset=bc_arff, attribute="Class")
        assert "node-caps" in text
        proxy.close()
