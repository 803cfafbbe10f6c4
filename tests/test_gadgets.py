import json

import pytest

from rekern.cli import run_command
from rekern.errors import InvalidSetCover, UnsupportedCombination, UnsupportedProblem
from rekern.gadgets import (
    build_clique_reopt_instance,
    build_extremal,
    build_negative_reopt_instance,
    build_setcover_cvc,
    is_extremal,
    s2_from_cover,
)
from rekern.graphs import (
    EdgeAdd,
    Graph,
    apply_modification,
    complete_graph,
    cycle_graph,
    path_graph,
)
from rekern.oracles import (
    is_connected_vertex_cover,
    membership,
    verify_solution,
)
from rekern.problems import ProblemKind as PK
from rekern.setcover import SetCoverInstance


# --- extremal blocks ---------------------------------------------------------


def test_build_extremal_shapes():
    assert build_extremal(PK.IVST, 3) == path_graph(5)
    assert build_extremal(PK.TREEWIDTH, 2) == complete_graph(4)
    assert build_extremal(PK.CLIQUE, 1) == complete_graph(1)
    star = build_extremal(PK.LEAF_OUT_TREE, 3)
    assert star.n == 4 and len(star.arcs) == 3
    with pytest.raises(UnsupportedProblem):
        build_extremal(PK.VERTEX_COVER, 2)
    with pytest.raises(UnsupportedProblem):
        build_extremal(PK.IVST, 0)


def test_is_extremal_examples():
    assert is_extremal(path_graph(5), PK.IVST, 3)
    # an end-edge deletion of P6 still leaves 3 internal vertices
    assert not is_extremal(path_graph(6), PK.IVST, 3)
    assert is_extremal(complete_graph(4), PK.TREEWIDTH, 2)


def test_is_extremal_canonical_blocks():
    for k in range(1, 6):
        assert is_extremal(build_extremal(PK.IVST, k), PK.IVST, k)
        assert is_extremal(build_extremal(PK.CLIQUE, k), PK.CLIQUE, k)
        assert is_extremal(
            build_extremal(PK.LEAF_OUT_TREE, k), PK.LEAF_OUT_TREE, k
        )
    for k in range(1, 4):
        assert is_extremal(build_extremal(PK.TREEWIDTH, k), PK.TREEWIDTH, k)


def test_is_extremal_flips_every_minimization_problem():
    # For a minimization problem a block is extremal when it lies outside
    # the language and every single deletion brings it back in: K2 at k = 0
    # and C5 at k = 2 are vertex-cover-critical, while deleting an edge of
    # C4 or P3 leaves its cover number unchanged.
    vc, cvc = PK.VERTEX_COVER, PK.CONNECTED_VERTEX_COVER
    assert is_extremal(complete_graph(2), vc, 0)
    assert is_extremal(cycle_graph(5), vc, 2)
    assert not is_extremal(cycle_graph(4), vc, 1)
    assert not is_extremal(path_graph(3), vc, 0)
    assert not is_extremal(complete_graph(2), vc, 1)  # a yes-instance
    assert is_extremal(complete_graph(2), cvc, 0)
    # C5 minus an edge is P5, whose connected cover still needs 3 vertices
    assert not is_extremal(cycle_graph(5), cvc, 2)
    assert not is_extremal(path_graph(3), cvc, 0)


def test_is_extremal_maximal_mode():
    # K_k is also a maximal yes-instance for clique at k when nothing can
    # be added; a graph with an absent edge whose addition creates K_{k+1}
    # is not maximal.  Use the 2-clique on 2 vertices, maximal trivially.
    assert is_extremal(complete_graph(2), PK.CLIQUE, 2, mode="maximal-yes")
    with pytest.raises(UnsupportedCombination):
        is_extremal(complete_graph(2), PK.CLIQUE, 2, mode="bogus")


# --- negative reoptimization instances -----------------------------------------


@pytest.mark.parametrize("mode", ["edge", "vertex"])
@pytest.mark.parametrize(
    "problem", [PK.LONGEST_PATH, PK.IVST, PK.CLIQUE, PK.TREEWIDTH]
)
def test_negative_instance_membership_matches_carrier(problem, mode, rng):
    from rekern.smallgraphs import random_graph

    for _ in range(12):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, 0.45)
        k = rng.randint(1, 3)
        if problem is PK.CLIQUE and mode == "edge" and k == 1:
            k = 2  # K_1 has no edge to dismantle
        inst = build_negative_reopt_instance(problem, g, k, mode=mode)
        carrier = membership(problem, g, k)
        modified = membership(problem, inst.modified, k)
        assert modified == carrier, (problem, mode, g, k)


def test_negative_instance_clique_k1_edge_mode_rejected():
    with pytest.raises(UnsupportedCombination):
        build_negative_reopt_instance(PK.CLIQUE, path_graph(2), 1, mode="edge")


def test_negative_instance_longest_path_k0_vertex_mode_rejected(tmp_path, capsys):
    """The k = 0 path block is one vertex, so vertex mode has nothing to
    delete: the builder says so, and the CLI exits 4 with that message."""
    with pytest.raises(UnsupportedCombination, match="no internal vertex to delete"):
        build_negative_reopt_instance(PK.LONGEST_PATH, path_graph(4), 0, mode="vertex")
    carrier = tmp_path / "paw.json"
    graph = {"n": 4, "edges": [[0, 1], [0, 2], [1, 2], [2, 3]]}
    carrier.write_text(
        json.dumps({"format": "rekern-instance", "version": 1, "graph": graph})
    )
    argv = ["gadget", "negative", "--problem", "longest_path", "--k", "0"]
    code = run_command([*argv, "--mode", "vertex", "--input", str(carrier)])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == (
        "validation: the longest_path block at this parameter has no internal "
        "vertex to delete\n"
    )


def test_negative_instance_witness_roles():
    inst = build_negative_reopt_instance(PK.LONGEST_PATH, cycle_graph(4), 3)
    assert inst.witness is not None
    assert verify_solution(PK.LONGEST_PATH, inst.original, inst.witness, 3)
    inst = build_negative_reopt_instance(PK.TREEWIDTH, path_graph(3), 2)
    assert inst.witness is None  # glued instance is a no-instance
    assert not membership(PK.TREEWIDTH, inst.original, 2)
    inst = build_negative_reopt_instance(PK.IVST, complete_graph(3), 1)
    assert verify_solution(PK.IVST, inst.original, inst.witness, 1)


def test_negative_instance_block_really_breaks():
    # after the deletion the block alone must not witness membership
    for problem in (PK.LONGEST_PATH, PK.IVST, PK.CLIQUE):
        for k in (1, 2, 3):
            if problem is PK.CLIQUE and k == 1:
                continue  # K_1 has no edge to dismantle
            empty = Graph.from_edges(1, [])
            inst = build_negative_reopt_instance(problem, empty, k)
            assert not membership(problem, inst.modified, k), (problem, k)


# --- clique reoptimization under additions ------------------------------------


def test_clique_eplus_examples(rng):
    iso2 = Graph.from_edges(2, [])
    inst = build_clique_reopt_instance(iso2, 2, "edge")
    assert membership(PK.CLIQUE, inst.modified, inst.k_modified) is False
    single_edge = Graph.from_edges(2, [(0, 1)])
    inst = build_clique_reopt_instance(single_edge, 2, "edge")
    assert membership(PK.CLIQUE, inst.modified, inst.k_modified) is True
    assert verify_solution(PK.CLIQUE, inst.original, inst.witness, inst.k)


def test_clique_vplus_examples():
    empty = Graph.from_edges(0, [])
    inst = build_clique_reopt_instance(empty, 1, "vertex")
    assert membership(PK.CLIQUE, inst.modified, inst.k_modified) is False
    one = Graph.from_edges(1, [])
    inst = build_clique_reopt_instance(one, 1, "vertex")
    assert membership(PK.CLIQUE, inst.modified, inst.k_modified) is True


@pytest.mark.parametrize("mode", ["edge", "vertex"])
def test_clique_builders_equivalence(mode, rng):
    from rekern.smallgraphs import random_graph

    for _ in range(15):
        g = random_graph(rng, rng.randint(1, 5), 0.5)
        k = rng.randint(1, 3)
        inst = build_clique_reopt_instance(g, k, mode)
        assert membership(PK.CLIQUE, inst.modified, inst.k_modified) == membership(
            PK.CLIQUE, g, k
        )


# --- set cover gadget ---------------------------------------------------------


def gadget_for(u, family, k):
    return build_setcover_cvc(SetCoverInstance.of(u, family, k))


def test_gadget_counts_match_formulas():
    gadget = gadget_for(2, [{1}, {2}, {1, 2}], 1)
    k, u, t = 1, 2, 3
    assert gadget.graph.n == 2 * (k + 2) * (u + 1) + t + 1 + (k + 2) + 2 == 27
    assert gadget.budget_c == (k + 2) * (u + 2) == 12
    assert len(gadget.s1) == gadget.budget_c + 2 == 14


def test_gadget_structure_invariants():
    gadget = gadget_for(3, [{1, 3}, {2}], 2)
    g, sc = gadget.graph, gadget.instance
    rows, cols = sc.k + 2, sc.universe_size + 1
    for i in range(rows):
        for j in range(cols):
            grid_v = gadget.grid[i][j]
            assert g.has_edge(grid_v, gadget.leaves[i][j])
            assert g.has_edge(grid_v, gadget.row_vertices[i])
            for ell, member in enumerate(sc.family):
                assert g.has_edge(grid_v, gadget.family_vertices[ell]) == (
                    j in member
                )
    # x touches column 0 of every row but the last
    for i in range(rows - 1):
        assert g.has_edge(gadget.x, gadget.grid[i][0])
    assert not g.has_edge(gadget.x, gadget.grid[rows - 1][0])
    assert gadget.reopt_edge == (gadget.x, gadget.grid[rows - 1][0])
    for fv in gadget.family_vertices:
        assert g.has_edge(fv, gadget.f)
    assert g.has_edge(gadget.x, gadget.f) and g.has_edge(gadget.f, gadget.y)
    for rv in gadget.row_vertices:
        assert g.has_edge(rv, gadget.y)
    # labels cover the roles
    assert g.label_of(gadget.x) == "x"
    assert g.label_of(gadget.grid[0][0]) == "u_{1,0}"
    assert g.label_of(gadget.leaves[0][0]) == "u'_{1,0}"
    assert g.label_of(gadget.family_vertices[0]) == "f_1"
    assert g.label_of(gadget.row_vertices[0]) == "v_1"


def test_gadget_s1_is_connected_cover():
    gadget = gadget_for(2, [{1}, {2}, {1, 2}], 1)
    assert is_connected_vertex_cover(gadget.graph, gadget.s1)


def test_gadget_s2_and_modified_solution():
    gadget = gadget_for(2, [{1}, {2}, {1, 2}], 1)
    s2 = s2_from_cover(gadget, (2,))
    assert len(s2) == (1 + 2) * (2 + 1) + 1 + 1 + 3 == 14
    assert is_connected_vertex_cover(gadget.graph, s2)
    modified = apply_modification(gadget.graph, EdgeAdd(*gadget.reopt_edge))
    trimmed = s2 - {gadget.row_vertices[-1]}
    assert is_connected_vertex_cover(modified, trimmed)
    assert len(trimmed) == gadget.budget_c + 1


def test_gadget_reopt_instance_view():
    gadget = gadget_for(2, [{1}, {2}], 2)
    inst = gadget.reopt_instance()
    assert inst.problem is PK.CONNECTED_VERTEX_COVER
    assert inst.k == gadget.budget_c + 2
    assert inst.k_modified == gadget.budget_c + 1
    assert inst.witness == gadget.s1
    assert isinstance(inst.modification, EdgeAdd)


def test_set_cover_instance_validation():
    with pytest.raises(InvalidSetCover):
        SetCoverInstance.of(2, [{1, 5}], 1)
    with pytest.raises(InvalidSetCover):
        SetCoverInstance.of(2, [{1}], 3)  # k > u
