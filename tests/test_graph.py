import pytest

from defaults import LIMITS
from weakrank.corpus import build_corpus
from weakrank.graph import HetGraph, build_graph


@pytest.fixture(scope="module")
def corpus():
    docs = [
        {"id": "q1", "role": "query", "text": "ml systems"},
        {"id": "c1", "role": "candidate", "text": "ml ml db"},
        {"id": "c2", "role": "candidate", "text": "db tuning"},
    ]
    return build_corpus(docs, **LIMITS)


def test_node_count(corpus):
    g = build_graph(corpus)
    # 1 query + 2 candidates + 4 distinct words (ml, systems, db, tuning)
    assert g.n_nodes == 1 + 2 + 4


def test_edge_weight_is_term_frequency(corpus):
    g = build_graph(corpus)
    c1 = g.node_index("candidate", "c1")
    ml = g.node_index("word", "ml")
    db = g.node_index("word", "db")
    pos_ml = list(g.neighbors[c1]).index(ml)
    pos_db = list(g.neighbors[c1]).index(db)
    assert g.weights[c1][pos_ml] == 2.0
    assert g.weights[c1][pos_db] == 1.0


def test_word_without_query_edge(corpus):
    g = build_graph(corpus)
    db = g.node_index("word", "db")
    types = {g.nodes[n][0] for n in g.neighbors[db]}
    assert types == {"candidate"}


def test_word_degree_counts_documents(corpus):
    g = build_graph(corpus)
    assert g.degrees[g.node_index("word", "db")] == 2
    assert g.degrees[g.node_index("word", "ml")] == 2  # q1 and c1


def test_edge_weight_sum_equals_token_count(corpus):
    g = build_graph(corpus)
    for doc in corpus.queries + corpus.candidates:
        idx = g.node_index(doc.role, doc.id)
        assert g.edge_weight_sum(idx) == len(doc.token_ids)


def test_doc_nodes_follow_node_index():
    """On a graph whose node order is not ``build_graph``'s, each document's
    row is its ``node_index``, in corpus order."""
    docs = [
        {"id": "q1", "role": "query", "text": "ml systems"},
        {"id": "q2", "role": "query", "text": "db"},
        {"id": "c1", "role": "candidate", "text": "ml db"},
        {"id": "c2", "role": "candidate", "text": "systems"},
    ]
    corpus = build_corpus(docs, **LIMITS)
    nodes = [("word", "db"), ("candidate", "c2"), ("query", "q2"), ("word", "ml"),
             ("candidate", "c1"), ("word", "systems"), ("query", "q1")]
    g = HetGraph(nodes, [(6, 3, 1.0), (6, 5, 1.0), (2, 0, 1.0), (4, 3, 1.0), (4, 0, 1.0),
                         (1, 5, 1.0)])
    q_nodes, c_nodes = g.doc_nodes(corpus)
    assert q_nodes.tolist() == [6, 2]
    assert c_nodes.tolist() == [4, 1]
    assert q_nodes.tolist() == [g.node_index("query", q) for q in corpus.query_ids]
    assert c_nodes.tolist() == [g.node_index("candidate", c) for c in corpus.candidate_ids]


def test_doc_nodes_names_a_document_the_graph_lacks(corpus):
    g = HetGraph([("query", "q1"), ("word", "ml")], [(0, 1, 1.0)])
    with pytest.raises(KeyError, match="'c1'"):
        g.doc_nodes(corpus)


def test_rejects_word_word_edge():
    nodes = [("word", "aa"), ("word", "bb")]
    with pytest.raises(ValueError, match="document node and a word node"):
        HetGraph(nodes, [(0, 1, 1.0)])


def test_rejects_doc_doc_edge():
    nodes = [("query", "q1"), ("candidate", "c1")]
    with pytest.raises(ValueError, match="document node and a word node"):
        HetGraph(nodes, [(0, 1, 1.0)])
