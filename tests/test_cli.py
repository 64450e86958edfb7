import contextlib
import hashlib
import io
import itertools
import os
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from flexicolor import cli, graph, listcolor, treedepth, treewidth
from flexicolor.cli import _parse_result, main
from flexicolor.degeneracy import first_among_neighbors
from flexicolor.errors import BudgetExceededError, FormatError
from flexicolor.graph import TreedepthForest
from flexicolor.instances import (
    InstanceFile,
    fig_3tree,
    fig_diamond,
    format_fraction,
    parse,
    random_bounded_degree,
    random_ktree,
    random_three_connected,
    random_treedepth,
    serialize,
    two_cliques_matching,
)
from flexicolor.listcolor import MAX_DIGITS, Request
from linecount import lines_run
from reference import reference_parse_result
from test_instances import OTHER_BODY
from test_listcolor import prism


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGenerate:
    def test_fixture_to_stdout(self, capsys):
        code, out, _ = run(["generate", "fig-diamond"], capsys)
        assert code == 0
        assert out.startswith("flexicolor-instance 1\n")

    def test_unknown_name(self, capsys):
        code, _, err = run(["generate", "nope"], capsys)
        assert code == 2
        assert "error precondition" in err

    def test_family_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.fi"
        b = tmp_path / "b.fi"
        run(["generate", "ktree", "--seed", "4", "--n", "9", "--out", str(a)], capsys)
        run(["generate", "ktree", "--seed", "4", "--n", "9", "--out", str(b)], capsys)
        assert a.read_text() == b.read_text()


class TestSolveAndVerify:
    def write(self, tmp_path, inst, name="inst.fi"):
        p = tmp_path / name
        p.write_text(serialize(inst))
        return str(p)

    def test_maxdeg_end_to_end(self, capsys, tmp_path):
        path = self.write(tmp_path, two_cliques_matching(3))
        res = str(tmp_path / "r.txt")
        code, _, _ = run(["solve", path, "--method", "maxdeg", "--out", res], capsys)
        assert code == 0
        code, out, _ = run(["verify", path, res], capsys)
        assert code == 0 and "bound-met=yes" in out

    def test_two_tree_method(self, capsys, tmp_path):
        path = self.write(tmp_path, random_ktree(5, 10, 2))
        code, out, _ = run(["solve", path, "--method", "two-tree"], capsys)
        assert code == 0
        assert "certified 1/3" in out

    def test_treedepth_method(self, capsys, tmp_path):
        path = self.write(tmp_path, random_treedepth(5, 10, 3))
        code, out, _ = run(["solve", path, "--method", "treedepth"], capsys)
        assert code == 0
        assert "bound-met yes" in out

    def test_treedepth_at_height_eight(self, capsys, tmp_path, monkeypatch):
        # one root step per vertex: the exact conditional expectation
        # does about h!·n work, more than a minute at this height
        inst, res = str(tmp_path / "td.fi"), str(tmp_path / "r.txt")
        argv = ["generate", "treedepth", "--seed", "1", "--n", "1000"]
        assert run(argv + ["--height", "8", "--out", inst], capsys)[0] == 0
        roots = record_calls(monkeypatch, treedepth._component_root)
        start = time.process_time()
        code, _, err = run(
            ["solve", inst, "--method", "treedepth", "--out", res], capsys
        )
        assert code == 0, err
        code, out, _ = run(["verify", inst, res], capsys)
        assert time.process_time() - start < 5.0
        assert code == 0 and out.endswith("bound-met=yes\n")
        assert len(roots) == 1000

    @pytest.mark.parametrize("lam,n", [("3,3,3", 200), ("2,3,3", 100)])
    def test_lambda_family_walk_at_scale(self, capsys, tmp_path, lam, n):
        # 362,880 and 40,320 members of n entries each; the walk visits
        # 1,680 and 560 blocks and builds no member but the winners
        k = sum(map(int, lam.split(","))) - 1
        path = self.write(
            tmp_path, random_ktree(1, n, k, list_size=k + 1, palette=k + 1)
        )
        res = str(tmp_path / "r.txt")
        argv = ["solve", path, "--method", "lambda", "--lam", lam, "--out", res]
        code, _, err = run(argv, capsys)
        assert code == 0, err
        code, out, _ = run(["verify", path, res], capsys)
        assert code == 0 and out.endswith("bound-met=yes\n")

    def test_degeneracy_method(self, capsys, tmp_path):
        path = self.write(tmp_path, random_three_connected(5, 14))
        res = str(tmp_path / "r.txt")
        code, _, _ = run(
            ["solve", path, "--method", "degeneracy", "--out", res], capsys
        )
        assert code == 0
        code, out, _ = run(["verify", path, res], capsys)
        assert code == 0

    def test_precondition_exit_code(self, capsys, tmp_path):
        path = self.write(tmp_path, fig_diamond())
        code, _, err = run(["solve", path, "--method", "maxdeg"], capsys)
        assert code == 2
        assert err.startswith("error precondition")

    def test_method_mismatch(self, capsys, tmp_path):
        path = self.write(tmp_path, fig_diamond())
        code, _, err = run(["solve", path, "--method", "treedepth"], capsys)
        assert code == 2

    def test_tampered_result_rejected(self, capsys, tmp_path):
        path = self.write(tmp_path, two_cliques_matching(3))
        res = tmp_path / "r.txt"
        run(["solve", path, "--method", "maxdeg", "--out", str(res)], capsys)
        text = res.read_text().replace("satisfied 1", "satisfied 3")
        res.write_text(text)
        code, _, err = run(["verify", path, str(res)], capsys)
        assert code == 2
        assert "differs" in err

    def test_maxdeg_on_a_large_prism(self, capsys, tmp_path):
        # fixing the requested vertex leaves one component on 2399
        # vertices with every list tight; a recursive search overflowed
        # the stack here
        n = 2400
        inst = InstanceFile(
            prism(n), {v: {1, 2, 3} for v in range(n)},
            Request("unweighted", prefs={0: 1}),
        )
        path = self.write(tmp_path, inst)
        res = str(tmp_path / "r.txt")
        code, _, err = run(["solve", path, "--method", "maxdeg", "--out", res], capsys)
        assert code == 0, err
        code, out, _ = run(["verify", path, res], capsys)
        assert code == 0 and out == "verified satisfied=1 bound-met=yes\n"

    def test_purity_same_bytes(self, capsys, tmp_path):
        path = self.write(tmp_path, two_cliques_matching(3))
        a = str(tmp_path / "a.txt")
        b = str(tmp_path / "b.txt")
        run(["solve", path, "--method", "maxdeg", "--out", a], capsys)
        run(["solve", path, "--method", "maxdeg", "--out", b], capsys)
        assert open(a).read() == open(b).read()


class TestMalformedInput:
    """A malformed document ends in exit status 2 and one error line."""

    def solved(self, capsys, tmp_path):
        inst = tmp_path / "inst.fi"
        inst.write_text(serialize(random_ktree(1, 9, 2)))
        res = tmp_path / "r.txt"
        run(["solve", str(inst), "--method", "two-tree", "--out", str(res)], capsys)
        return str(inst), res

    def error_line(self, capsys, argv):
        code, _, err = run(argv, capsys)
        assert code == 2 and len(err.splitlines()) == 1, err
        return err

    def test_non_integer_color_vertex(self, capsys, tmp_path):
        inst, res = self.solved(capsys, tmp_path)
        res.write_text(res.read_text().replace("color 3 ", "color x ", 1))
        err = self.error_line(capsys, ["verify", inst, str(res)])
        assert err.startswith("error format")

    def test_bare_method_line(self, capsys, tmp_path):
        inst, res = self.solved(capsys, tmp_path)
        res.write_text(res.read_text().replace("method two-tree\n", "method\n"))
        err = self.error_line(capsys, ["verify", inst, str(res)])
        assert err.startswith("error format")

    def test_color_for_missing_vertex(self, capsys, tmp_path):
        inst, res = self.solved(capsys, tmp_path)
        res.write_text(res.read_text() + "color 99 1\n")
        err = self.error_line(capsys, ["verify", inst, str(res)])
        assert err.startswith("error precondition") and "99" in err

    @pytest.mark.parametrize(
        "old,new",
        [
            ("total 8\n", "total 1000\n"),
            ("bound-met yes\n", "bound-met no\n"),
        ],
    )
    def test_stated_total_and_verdict_are_recomputed(
        self, capsys, tmp_path, old, new
    ):
        inst, res = self.solved(capsys, tmp_path)
        text = res.read_text()
        assert old in text
        code, out, _ = run(["verify", inst, str(res)], capsys)
        assert code == 0 and out == "verified satisfied=8 bound-met=yes\n"
        res.write_text(text.replace(old, new))
        err = self.error_line(capsys, ["verify", inst, str(res)])
        assert err.startswith("error precondition")

    @pytest.mark.parametrize(
        "first,stray", [("first -1 8", "-1"), ("first 6 99", "99")]
    )
    def test_first_vertex_out_of_range(self, capsys, tmp_path, first, stray):
        inst = tmp_path / "inst.fi"
        inst.write_text(serialize(random_three_connected(5, 14)))
        res = tmp_path / "r.txt"
        argv = ["solve", str(inst), "--method", "degeneracy", "--out", str(res)]
        assert run(argv, capsys)[0] == 0
        lines = [first if ln.startswith("first ") else ln
                 for ln in res.read_text().splitlines()]
        res.write_text("\n".join(lines) + "\n")
        err = self.error_line(capsys, ["verify", str(inst), str(res)])
        assert err.startswith("error precondition") and f"vertex {stray} " in err

    def test_first_vertex_with_an_earlier_neighbor(self, capsys, tmp_path):
        inst = tmp_path / "inst.fi"
        inst.write_text(serialize(random_three_connected(5, 14)))
        res = tmp_path / "r.txt"
        argv = ["solve", str(inst), "--method", "degeneracy", "--out", str(res)]
        assert run(argv, capsys)[0] == 0
        lines = res.read_text().splitlines()
        last = next(ln for ln in lines if ln.startswith("order ")).split()[-1]
        lines = [ln + f" {last}" if ln.startswith("first ") else ln for ln in lines]
        res.write_text("\n".join(lines) + "\n")
        err = self.error_line(capsys, ["verify", str(inst), str(res)])
        assert err.startswith("error precondition")
        assert f"vertex {last} is marked first" in err

    @pytest.mark.parametrize(
        "argv,damaged",
        [
            (["solve", "{inst}", "--method", "two-tree"], "inst"),
            (["oracle", "{inst}"], "inst"),
            (["verify", "{inst}", "{res}"], "inst"),
            (["verify", "{inst}", "{res}"], "res"),
        ],
    )
    def test_non_utf8_document(self, capsys, tmp_path, argv, damaged):
        inst, res = self.solved(capsys, tmp_path)
        doc = Path(inst) if damaged == "inst" else res
        doc.write_bytes(doc.read_bytes().replace(b"\n", b"\n\xff\n", 1))
        argv = [a.format(inst=inst, res=res) for a in argv]
        err = self.error_line(capsys, argv)
        assert err.startswith("error format") and "UTF-8" in err

    def test_family_walk_over_the_cap_exits_3(self, capsys, tmp_path):
        # ten parts of 1 on a 9-tree: 10! blocks of n vertices each, so
        # the walk stops before the first base family is built
        inst = random_ktree(1, 12, 9, list_size=10, palette=10)
        path = tmp_path / "inst.fi"
        path.write_text(serialize(inst))
        argv = ["solve", str(path), "--method", "lambda", "--lam", ",".join("1" * 10)]
        with mock.patch.object(treewidth, "_base_family") as build:
            code, _, err = run(argv, capsys)
        assert code == 3 and len(err.splitlines()) == 1, err
        assert err.startswith("error budget family walk would visit 3628800 blocks")
        assert build.call_count == 0

    @staticmethod
    def class_search_trap(palette):
        """Lists for lam = (1, 2) with no color-class partition: disjoint
        triples of the low colors, then every triple of a 4-color core
        at the top of the palette, which no partition fits, so the
        search tries every split of the triples first."""
        core = range(palette - 4, palette)
        lists = [range(c, c + 3) for c in range(0, palette - 4, 3)]
        return lists + [set(t) for t in itertools.combinations(core, 3)]

    def test_class_search_over_its_budget_exits_3(self, capsys, tmp_path):
        lists = self.class_search_trap(31)
        inst = random_ktree(1, len(lists), 2)
        inst.L = {v: set(lst) for v, lst in enumerate(lists)}
        inst.request = Request("unweighted", prefs={0: 0})
        path = tmp_path / "inst.fi"
        path.write_text(serialize(inst))
        argv = ["solve", str(path), "--method", "lambda", "--lam", "1,2"]
        code, _, err = run(argv, capsys)
        assert code == 3 and len(err.splitlines()) == 1, err
        assert err.startswith("error budget color-class search passed")

    @staticmethod
    def class_search_nodes(lists, lam):
        """(classes or the error raised, number of search nodes): a node
        is one call of the search's pass over every list."""
        nodes = []

        def profile(frame, event, arg):
            code = frame.f_code
            if (
                event == "call"
                and code.co_filename == cli.__file__
                and code.co_qualname == "_infer_classes.<locals>.counts_ok"
            ):
                nodes.append(1)

        sys.setprofile(profile)
        try:
            found = cli._infer_classes(dict(enumerate(lists)), lam)
        except BudgetExceededError as exc:
            found = exc
        finally:
            sys.setprofile(None)
        return found, len(nodes)

    def test_class_search_counts_its_nodes(self):
        # the search stops at the node that would pass the budget, and
        # lists that have a partition are found in a few nodes per color
        found, nodes = self.class_search_nodes(self.class_search_trap(31), (1, 2))
        assert isinstance(found, BudgetExceededError)
        assert str(found) == (
            f"color-class search passed {cli.CLASS_SEARCH_NODES} nodes"
        )
        assert nodes == cli.CLASS_SEARCH_NODES + 1
        lists = self.class_search_trap(31)[:-4] + [{27, 28, 29}]
        found, nodes = self.class_search_nodes(lists, (1, 2))
        assert found[0] == tuple(range(0, 30, 3))
        assert nodes < 100

    def test_class_search_nodes_do_not_grow_with_n(self):
        # class-split lists as the generated lambda documents hold them:
        # the node count depends on the palette, not on the number of
        # lists, so a large document is not refused by the budget
        rng = random.Random(1)
        lists = [
            {rng.choice((0, 1)), *rng.sample((2, 3, 4), 2)} for _ in range(30000)
        ]
        found, nodes = self.class_search_nodes(lists, (1, 2))
        assert found == ((0, 1), (2, 3, 4))
        assert nodes == self.class_search_nodes(lists[:10], (1, 2))[1] < 20

    @pytest.mark.parametrize("lam", ["x,1", "0,1", "1,,2", "-1,2"])
    def test_bad_lam(self, capsys, tmp_path, lam):
        inst, _ = self.solved(capsys, tmp_path)
        argv = ["solve", inst, "--method", "lambda", f"--lam={lam}"]
        err = self.error_line(capsys, argv)
        assert err.startswith("error ") and "--lam" in err

    def test_lam_size_mismatch_skips_partition_search(self, capsys, tmp_path):
        # every list holds 3 colors; parts summing to 6 can never fit, and
        # the palette backtracking must not start
        inst, _ = self.solved(capsys, tmp_path)
        searched = []

        def profile(frame, event, arg):
            code = frame.f_code
            if (
                event == "call"
                and code.co_filename == cli.__file__
                and code.co_qualname.startswith("_infer_classes.<locals>.")
                and code.co_name in ("rec", "counts_ok")
            ):
                searched.append(code.co_name)

        def search_calls(lam):
            searched.clear()
            sys.setprofile(profile)
            try:
                code, _, err = run(
                    ["solve", inst, "--method", "lambda", "--lam", lam], capsys
                )
            finally:
                sys.setprofile(None)
            return code, err, len(searched)

        code, err, calls = search_calls("1,1,1,1,1,1")
        assert code == 2 and len(err.splitlines()) == 1, err
        assert err.startswith("error precondition lists admit no color-class")
        assert calls == 0
        # the sizes match here, so the search runs and the count sees it
        assert search_calls("1,2")[2] > 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "ktree", "--k", "0", "--n", "3"],
            ["generate", "ktree", "--k", "-1", "--n", "3"],
            ["generate", "treedepth", "--n", "0"],
        ],
    )
    def test_degenerate_generator_sizes(self, capsys, argv):
        err = self.error_line(capsys, argv)
        assert err.startswith("error precondition")

    @pytest.mark.parametrize(
        "old,new",
        [
            ("edge 0 1\n", "edge 0 1\nedge 0 1\n"),
            ("edge 0 1\nedge 0 2\n", "edge 0 2\nedge 0 1\n"),
            ("edge 0 1\n", "edge 0 01\n"),
        ],
    )
    def test_malformed_instance(self, capsys, tmp_path, old, new):
        text = serialize(random_ktree(1, 9, 2))
        assert old in text
        inst = tmp_path / "inst.fi"
        inst.write_text(text.replace(old, new))
        err = self.error_line(capsys, ["solve", str(inst), "--method", "two-tree"])
        assert err.startswith("error format")


def fig_3tree_with_request():
    inst = fig_3tree()
    inst.request = Request("unique", prefs={0: 1, 5: 2},
                           weights={0: Fraction(3), 5: Fraction(1, 2)})
    return inst


def with_request(inst, request):
    inst.request = request
    return inst


class TestCertifiedRecomputed:
    """verify recomputes the certified fraction of every result from the
    instance."""

    def solve(self, capsys, tmp_path, inst, *method):
        path, res = tmp_path / "inst.fi", tmp_path / "r.txt"
        path.write_text(serialize(inst))
        argv = ["solve", str(path), "--method", *method, "--out", str(res)]
        assert run(argv, capsys)[0] == 0
        return path, res

    @pytest.mark.parametrize(
        "make,method,stated,tampered",
        [
            (lambda: random_ktree(1, 200, 2), ("two-tree",), "1/3", "0"),
            (fig_3tree_with_request, ("lambda", "--lam", "2,2"), "1/4", "1/2"),
            (lambda: random_treedepth(5, 10, 3), ("treedepth",), "1/3", "1/2"),
            (lambda: random_treedepth(5, 10, 3, request_kind="weighted"),
             ("treedepth",), "1/9", "1/3"),
            # generate bounded-degree --n 40 --delta 4 --seed 3
            (lambda: random_bounded_degree(3, 40, 4), ("maxdeg",), "1/24", "0"),
            (lambda: random_bounded_degree(2, 14, 3, request_kind="unique"),
             ("maxdeg-weighted",), "1/12", "1/6"),
            (lambda: random_bounded_degree(2, 14, 3, request_kind="weighted"),
             ("maxdeg-weighted",), "1/36", "1/12"),
            (lambda: random_three_connected(5, 14), ("degeneracy",), "3/152", "0"),
            (lambda: with_request(random_three_connected(5, 14), Request("unweighted")),
             ("degeneracy",), "0", "1/2"),
            (lambda: with_request(two_cliques_matching(3), Request("unweighted")),
             ("maxdeg",), "0", "1/18"),
        ],
    )
    def test_tampered_certified_rejected(self, capsys, tmp_path, make, method,
                                         stated, tampered):
        path, res = self.solve(capsys, tmp_path, make(), *method)
        text = res.read_text()
        assert f"\ncertified {stated}\n" in text
        code, out, _ = run(["verify", str(path), str(res)], capsys)
        assert code == 0 and out.startswith("verified satisfied=")
        res.write_text(text.replace(f"\ncertified {stated}\n", f"\ncertified {tampered}\n"))
        code, _, err = run(["verify", str(path), str(res)], capsys)
        assert code == 2 and len(err.splitlines()) == 1
        assert err.startswith("error precondition") and "certified" in err

    @pytest.mark.parametrize(
        "make,method,drop",
        [
            (fig_3tree_with_request, ("lambda", "--lam", "2,2"), "ktree"),
            (lambda: random_ktree(1, 9, 2), ("two-tree",), "ktree"),
            (lambda: random_treedepth(5, 10, 3), ("treedepth",), "forest"),
        ],
    )
    def test_result_on_an_instance_without_its_structure(
        self, capsys, tmp_path, make, method, drop
    ):
        inst = make()
        path, res = self.solve(capsys, tmp_path, inst, *method)
        setattr(inst, drop, None)
        path.write_text(serialize(inst))
        code, _, err = run(["verify", str(path), str(res)], capsys)
        assert code == 2 and len(err.splitlines()) == 1
        assert err.startswith("error precondition")

    @pytest.mark.parametrize(
        "prefs,lines,message",
        [
            # Brooks has no coloring of K4 with maxdeg colors
            ({0: 0}, ["method maxdeg", "satisfied 1", "certified 1/18", "total 1",
                      *(f"color {v} {v}" for v in range(4))],
             "complete graph"),
            # a regular graph has no vertex to end the ordering with
            ({0: 0, 1: 0}, ["method degeneracy", "satisfied 1", "certified 1/2",
                            "total 2", "degeneracy 3", "order 0 1 2 3", "first 0"],
             "regular"),
        ],
    )
    def test_certified_of_an_instance_outside_the_solver(
        self, capsys, tmp_path, prefs, lines, message
    ):
        """A valid answer on K4, which no solver of these methods takes."""
        path, res = tmp_path / "inst.fi", tmp_path / "r.txt"
        k4 = graph.Graph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
        path.write_text(serialize(InstanceFile(
            k4, {v: {0, 1, 2, 3} for v in range(4)}, Request("unweighted", prefs=prefs)
        )))
        res.write_text("\n".join([cli.RESULT_HEADER, *lines]) + "\n")
        code, _, err = run(["verify", str(path), str(res)], capsys)
        assert code == 2 and len(err.splitlines()) == 1
        assert err.startswith("error precondition") and message in err

    def test_degeneracy_held_to_max_degree_minus_one(self, capsys, tmp_path):
        """An order with a vertex of four earlier neighbors, stated as
        4-degenerate on a graph of maximum degree 4, with first,
        satisfied and bound-met restated to match it."""
        inst = random_three_connected(3, 10)
        g = inst.g
        assert g.max_degree() == 4
        path, res = self.solve(capsys, tmp_path, inst, "degeneracy")
        doc = _parse_result(res.read_text())
        top = next(v for v in doc["order"] if g.degree(v) == 4)
        order = tuple(v for v in doc["order"] if v != top) + (top,)
        first = first_among_neighbors(g, order)
        satisfied = len(first & inst.request.domain())
        met = satisfied >= doc["certified"] * doc["total"]
        res.write_text("\n".join([
            cli.RESULT_HEADER,
            "method degeneracy",
            f"satisfied {satisfied}",
            f"certified {format_fraction(doc['certified'])}",
            f"total {doc['total']}",
            "degeneracy 4",
            "order " + " ".join(map(str, order)),
            "first " + " ".join(map(str, sorted(first))),
            f"bound-met {'yes' if met else 'no'}",
        ]) + "\n")
        code, _, err = run(["verify", str(path), str(res)], capsys)
        assert code == 2 and len(err.splitlines()) == 1
        assert err.startswith(
            "error precondition stated degeneracy 4 differs from the "
            "recomputed 3"
        )

    @pytest.mark.parametrize(
        "make,method,other",
        [
            (lambda: two_cliques_matching(3), "maxdeg", "maxdeg-weighted"),
            (lambda: random_bounded_degree(2, 14, 3, request_kind="unique"),
             "maxdeg-weighted", "maxdeg"),
        ],
    )
    def test_method_of_another_request_kind(self, capsys, tmp_path, make,
                                            method, other):
        path, res = self.solve(capsys, tmp_path, make(), method)
        res.write_text(res.read_text().replace(f"method {method}\n", f"method {other}\n"))
        code, _, err = run(["verify", str(path), str(res)], capsys)
        assert code == 2 and len(err.splitlines()) == 1
        assert err.startswith(f"error precondition method {other} does not solve")

    def test_unknown_method_rejected(self, capsys, tmp_path):
        path, res = self.solve(capsys, tmp_path, random_ktree(1, 9, 2), "two-tree")
        res.write_text(res.read_text().replace("method two-tree", "method magic"))
        code, _, err = run(["verify", str(path), str(res)], capsys)
        assert code == 2 and "unknown method" in err

    def test_unknown_method_named_before_the_recount(self, capsys, tmp_path):
        # an empty coloring would fail the recount first ("coloring
        # misses vertex 0"); the method must be named before that
        path, res = tmp_path / "d.fi", tmp_path / "d.res"
        run(["generate", "fig-diamond", "--out", str(path)], capsys)
        res.write_text("\n".join([
            cli.RESULT_HEADER,
            "method foo",
            "satisfied 0",
            "certified 0",
            "total 0",
        ]) + "\n")
        code, _, err = run(["verify", str(path), str(res)], capsys)
        assert code == 2
        assert err == "error precondition result names unknown method 'foo'\n"

    @pytest.mark.parametrize(
        "make,method",
        [
            pytest.param(lambda: two_cliques_matching(3), ("maxdeg",), id="maxdeg"),
            pytest.param(
                lambda: with_request(two_cliques_matching(3), Request("unweighted")),
                ("maxdeg",),
                id="maxdeg-empty-request",
            ),
            pytest.param(
                lambda: random_bounded_degree(2, 14, 3, request_kind="unique"),
                ("maxdeg-weighted",),
                id="maxdeg-weighted",
            ),
            pytest.param(lambda: random_ktree(1, 9, 2), ("two-tree",), id="two-tree"),
            pytest.param(
                fig_3tree_with_request, ("lambda", "--lam", "2,2"), id="lambda"
            ),
            pytest.param(
                lambda: random_treedepth(5, 10, 3), ("treedepth",), id="treedepth"
            ),
        ],
    )
    def test_each_invariant_checked_once(
        self, capsys, tmp_path, monkeypatch, make, method
    ):
        """solve and verify each check the coloring once.  The lists, the
        k-tree order and the forest are checked once per process: solve
        reads the body, verify gets its graph; a rewritten body is read
        and checked once more."""
        path, res = tmp_path / "inst.fi", tmp_path / "r.txt"
        text = serialize(make())
        path.write_text(text)
        parse(OTHER_BODY)  # solve reads the body
        parsed, forests = [], []
        validate = TreedepthForest.validate
        monkeypatch.setattr(
            cli, "parse", lambda text: parsed.append(parse(text)) or parsed[-1]
        )
        monkeypatch.setattr(
            TreedepthForest,
            "validate",
            lambda forest, g: forests.append(g) or validate(forest, g),
        )
        colorings = record_calls(monkeypatch, listcolor.check_coloring)
        lists = record_calls(monkeypatch, listcolor.validate_lists)
        orders = record_calls(monkeypatch, graph.validate_ktree_order)
        checks = (lists, orders, forests)
        argv = ["solve", str(path), "--method", *method, "--out", str(res)]
        assert run(argv, capsys)[0] == 0
        assert len(colorings) == 1
        assert run(["verify", str(path), str(res)], capsys)[0] == 0
        assert len(colorings) == 2
        solved, verified = parsed
        assert verified.g is solved.g
        # the lambda family also checks the orders of its subgraphs
        def on(g) -> list:
            return [sum(h is g for h in check) for check in checks]

        once = [1, solved.ktree is not None, solved.forest is not None]
        assert on(solved.g) == once

        name = f"\nname {solved.name}\n"
        assert name in text
        path.write_text(text.replace(name, "\nname rewritten\n"))
        assert run(["verify", str(path), str(res)], capsys)[0] == 0
        assert len(colorings) == 3
        rewritten = parsed[-1]
        assert rewritten.g is not solved.g and rewritten.g == solved.g
        assert on(solved.g) == once and on(rewritten.g) == once


def same_body_documents(inst, count: int) -> list:
    """count documents of inst's body, each with a request of its own."""
    rng = random.Random(count)
    docs = []
    for size in range(1, count + 1):
        vs = rng.sample(range(inst.g.n), size)
        inst.request = Request(
            "unweighted", prefs={v: rng.choice(sorted(inst.L[v])) for v in vs}
        )
        docs.append(serialize(inst))
    return docs


# (instance, method, the (power, mode) of the coloring its fraction
# counts, or None)
BODY_FACT_CASES = [
    pytest.param(lambda: random_ktree(1, 30, 2), "two-tree", None, id="two-tree"),
    pytest.param(lambda: two_cliques_matching(3), "maxdeg", (1, "brooks"), id="maxdeg"),
    pytest.param(
        lambda: random_bounded_degree(2, 14, 3, request_kind="unique"),
        "maxdeg-weighted",
        (3, "greedy"),
        id="maxdeg-weighted",
    ),
    pytest.param(
        lambda: random_three_connected(5, 14), "degeneracy", (1, "greedy"),
        id="degeneracy",
    ),
]


class TestBodyFacts:
    """The 2-tree family and the proper colorings of g are made once per
    parsed body, and change no answer; a failed build is not kept."""

    def answer(self, capsys, path, method, res) -> tuple:
        """(exit status, result document, stderr) of a solve and the
        (exit status, stdout, stderr) of its verify; the document and the
        verify are None when solve exits 2 or more."""
        argv = ["solve", str(path), "--method", method, "--out", str(res)]
        code, _, err = run(argv, capsys)
        if code >= 2:
            return code, None, err, None
        return code, res.read_bytes(), err, run(["verify", str(path), str(res)], capsys)

    def test_two_tree_family_built_once_per_body(self, capsys, tmp_path, monkeypatch):
        path, res = tmp_path / "inst.fi", tmp_path / "r.txt"
        docs = same_body_documents(random_ktree(3, 40, 2), 8)
        parse(OTHER_BODY)
        builds = record_calls(monkeypatch, treewidth.two_tree_family)
        for doc in docs:
            path.write_text(doc)
            assert self.answer(capsys, path, "two-tree", res)[0] == 0
        assert len(builds) == 1
        # bodies A, B, A: the slot holds one body, so A is built again
        for doc in (serialize(random_ktree(4, 40, 2)), docs[0]):
            path.write_text(doc)
            assert self.answer(capsys, path, "two-tree", res)[0] == 0
        assert len(builds) == 3

    @pytest.mark.parametrize("make,method,coloring", BODY_FACT_CASES[1:])
    def test_one_proper_coloring_per_solve_and_verify(
        self, capsys, tmp_path, monkeypatch, make, method, coloring
    ):
        path, res = tmp_path / "inst.fi", tmp_path / "r.txt"
        path.write_text(serialize(make()))
        parse(OTHER_BODY)
        made = {
            "brooks": record_calls(monkeypatch, graph._brooks_coloring),
            "greedy": record_calls(monkeypatch, graph._greedy_coloring),
        }
        assert self.answer(capsys, path, method, res)[0] == 0
        mode = coloring[1]
        assert {m: len(calls) for m, calls in made.items()} == {
            m: int(m == mode) for m in made
        }

    @pytest.mark.parametrize("make,method,coloring", BODY_FACT_CASES)
    def test_warm_answers_equal_cold_ones(
        self, capsys, tmp_path, make, method, coloring
    ):
        path = tmp_path / "inst.fi"
        path.write_text(serialize(make()))
        parse(OTHER_BODY)
        cold = self.answer(capsys, path, method, tmp_path / "cold.txt")
        assert cold[0] == 0 and cold[3][0] == 0
        assert self.answer(capsys, path, method, tmp_path / "warm.txt") == cold
        if coloring is not None:
            # a coloring handed out and then changed leaves the next answer
            handed = graph.proper_coloring(parse(path.read_text()).g, *coloring)
            handed.update(dict.fromkeys(handed, 0))
            assert self.answer(capsys, path, method, tmp_path / "again.txt") == cold

    def test_refused_two_tree_family_is_not_kept(self, capsys, tmp_path, monkeypatch):
        path, res = tmp_path / "inst.fi", tmp_path / "r.txt"
        path.write_text(serialize(random_ktree(1, 9, 2, list_size=2)))
        builds = record_calls(monkeypatch, treewidth.two_tree_family)
        answers = [self.answer(capsys, path, "two-tree", res) for _ in range(3)]
        assert answers[0] == (
            2, None, "error precondition vertex 0 has list size 2, expected 3\n", None
        )
        assert answers == answers[:1] * 3
        assert len(builds) == 3


def record_calls(monkeypatch, fn) -> list:
    """Rebind fn in every loaded flexicolor module that holds it; the
    returned list gets the first argument of each call."""
    seen: list = []

    def wrapped(*args, **kwargs):
        seen.append(args[0])
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "flexicolor" or name.startswith("flexicolor."):
            for key, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, key, wrapped)
    return seen


# replacement tokens of the result-document fuzzer: out of range, empty,
# a zero denominator, not a number, a decimal, another fraction
FUZZ_TOKENS = ("-1", "0", "99", "", "1/0", "x", "1.5", "1/2")
FUZZ_BASES = {
    "two-tree": lambda: random_ktree(1, 9, 2),
    "maxdeg": lambda: two_cliques_matching(3),
    "maxdeg-weighted": lambda: random_bounded_degree(2, 14, 3, request_kind="unique"),
    "degeneracy": lambda: random_three_connected(5, 14),
}


@pytest.fixture(scope="module")
def solved_results(tmp_path_factory):
    """Instance path and result text of one solve per fuzzed method."""
    d = tmp_path_factory.mktemp("fuzz")
    out = {}
    for method, make in FUZZ_BASES.items():
        inst, res = d / f"{method}.fi", d / f"{method}.txt"
        inst.write_text(serialize(make()))
        argv = ["solve", str(inst), "--method", method, "--out", str(res)]
        assert main(argv) == 0
        out[method] = (str(inst), res.read_text())
    return d, out


def mutate(lines: list, data) -> list:
    """Drop, duplicate, swap, shuffle or overwrite lines and tokens."""
    lines = list(lines)
    for _ in range(data.draw(st.integers(1, 3))):
        if not lines:
            break
        i = data.draw(st.integers(0, len(lines) - 1))
        kind = data.draw(st.sampled_from(["drop", "dup", "swap", "shuffle", "token"]))
        if kind == "drop":
            del lines[i]
        elif kind == "dup":
            lines.insert(i, lines[i])
        elif kind == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            toks = lines[i].split(" ")
            if kind == "shuffle":
                toks = data.draw(st.permutations(toks))
            else:
                toks[data.draw(st.integers(0, len(toks) - 1))] = data.draw(
                    st.sampled_from(FUZZ_TOKENS)
                )
            lines[i] = " ".join(toks)
    return lines


class TestResultFuzz:
    """A mutated result document gets a verdict or one error line."""

    @pytest.mark.parametrize("method", sorted(FUZZ_BASES))
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_result(self, solved_results, method, data):
        d, results = solved_results
        inst, text = results[method]
        res = d / f"{method}-mutated.txt"
        res.write_text("\n".join(mutate(text.splitlines(), data)) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", inst, str(res)])
        assert code in (0, 1, 2, 3), err.getvalue()
        if code >= 2:
            assert len(err.getvalue().splitlines()) == 1, err.getvalue()
            assert err.getvalue().startswith("error ")
        else:
            assert err.getvalue() == ""

    @pytest.mark.parametrize("method", sorted(FUZZ_BASES))
    @settings(max_examples=40, deadline=None)
    @given(stated=st.fractions(min_value=0, max_value=2, max_denominator=1000))
    def test_swapped_certified(self, solved_results, method, stated):
        """Any certified fraction but the one recomputed is refused."""
        d, results = solved_results
        inst, text = results[method]
        lines = text.splitlines()
        [i] = [i for i, ln in enumerate(lines) if ln.startswith("certified ")]
        real = Fraction(lines[i].split(" ")[1])
        lines[i] = f"certified {format_fraction(stated)}"
        res = d / f"{method}-certified.txt"
        res.write_text("\n".join(lines) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", inst, str(res)])
        if stated == real:
            assert code == 0 and err.getvalue() == ""
        else:
            assert code == 2
            assert err.getvalue().startswith("error precondition stated certified")
            assert len(err.getvalue().splitlines()) == 1


class TestResultParser:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_agrees_with_the_line_by_line_reference(self, solved_results, data):
        _, results = solved_results
        lines = results[data.draw(st.sampled_from(sorted(results)))][1].splitlines()
        if data.draw(st.booleans()):
            # a key other than color stated again, later, with any value
            j = data.draw(st.sampled_from(
                [i for i, line in enumerate(lines) if i and not line.startswith("color ")]
            ))
            key = lines[j].split(" ")[0]
            restated = f"{key} {data.draw(st.sampled_from(FUZZ_TOKENS))}"
            at = data.draw(st.integers(j + 1, len(lines)))
            lines = lines[:at] + [data.draw(st.sampled_from([lines[j], restated]))] + lines[at:]
        mutated = "\n".join(mutate(lines, data)) + "\n"

        def outcome(parser):
            try:
                return "ok", parser(mutated)
            except FormatError as exc:
                return "error", exc.line

        assert outcome(_parse_result) == outcome(reference_parse_result)

    @pytest.mark.parametrize(
        "key",
        ["method", "satisfied", "certified", "total", "degeneracy", "order",
         "first", "bound-met"],
    )
    def test_second_scalar_line(self, capsys, solved_results, key):
        """A key other than color stated twice is an error at its second
        line, whether the value repeats or changes; neither wins."""
        inst, text = solved_results[1]["degeneracy"]
        lines = text.splitlines()
        at = next(i for i, line in enumerate(lines) if line.split(" ")[0] == key)
        other = "no" if key == "bound-met" else "999"
        for restated in (lines[at], f"{key} {other}"):
            doc = "\n".join(lines[:at] + [restated] + lines[at:]) + "\n"
            for parser in (_parse_result, reference_parse_result):
                with pytest.raises(FormatError, match=f"second {key} line") as exc:
                    parser(doc)
                assert exc.value.line == at + 2
        res = solved_results[0] / f"second-{key}.txt"
        res.write_text(doc)
        code, _, err = run(["verify", inst, str(res)], capsys)
        assert code == 2 and len(err.splitlines()) == 1
        assert err.startswith("error format") and f"second {key} line" in err

    @pytest.mark.parametrize(
        "extra,line",
        [("color 2 1\n", 3), ("color 1 1\ncolor 1 2\n", 4), ("color 1 x\n", 3)],
    )
    def test_first_bad_color_line(self, extra, line):
        text = "flexicolor-result 1\ncolor 2 3\n" + extra + "method two-tree\n"
        with pytest.raises(FormatError) as exc:
            _parse_result(text)
        assert exc.value.line == line
        with pytest.raises(FormatError) as exc:
            reference_parse_result(text)
        assert exc.value.line == line

    def test_color_longer_than_int_converts(self, capsys, tmp_path):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        inst, res = tmp_path / "inst.fi", tmp_path / "r.txt"
        inst.write_text(serialize(random_ktree(1, 9, 2)))
        run(["solve", str(inst), "--method", "two-tree", "--out", str(res)], capsys)
        res.write_text(res.read_text().replace("color 3 ", "color " + "3" * (limit + 1) + " ", 1))
        code, _, err = run(["verify", str(inst), str(res)], capsys)
        assert code == 2 and err.startswith("error format") and len(err.splitlines()) == 1

    def test_runs_split_by_other_keys(self):
        text = ("flexicolor-result 1\ncolor 1 3\nmethod maxdeg\ncolor 0 2\n"
                "satisfied 1\ncertified 1/6\ntotal 2\n")
        doc = _parse_result(text)
        assert doc == reference_parse_result(text)
        assert doc["coloring"] == {1: 3, 0: 2}
        with pytest.raises(FormatError) as exc:
            _parse_result(text + "color 1 2\n")
        assert exc.value.line == 8


class TestOracleCommand:
    def test_diamond_zero(self, capsys, tmp_path):
        p = tmp_path / "d.fi"
        p.write_text(serialize(fig_diamond()))
        code, out, _ = run(["oracle", str(p)], capsys)
        assert code == 0
        assert "optimum 0" in out

    def test_dimacs_ingestion(self, capsys, tmp_path):
        p = tmp_path / "g.col"
        p.write_text("p edge 4 5\ne 1 2\ne 1 3\ne 2 3\ne 2 4\ne 3 4\n")
        code, _, err = run(["oracle", str(p)], capsys)
        # graph-only document carries no request
        assert code == 2 and "no request" in err

    def test_graph_only_input_rejected_before_it_is_built(self, capsys, tmp_path):
        # a billion declared vertices: rejected from the header alone
        p = tmp_path / "huge.col"
        p.write_text("p edge 1000000000 0\n")
        start = time.process_time()
        code, out, err = run(["oracle", str(p)], capsys)
        assert time.process_time() - start < 1.0
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error precondition") and "carries no request" in err

    def test_format_error_exit(self, capsys, tmp_path):
        p = tmp_path / "junk.fi"
        p.write_text("flexicolor-instance 1\nwat 1\n")
        code, _, err = run(["oracle", str(p)], capsys)
        assert code == 2 and err.startswith("error format")


def first_primes(count: int) -> list:
    primes, x = [], 2
    while len(primes) < count:
        if all(x % p for p in primes if p * p <= x):
            primes.append(x)
        x += 1
    return primes


def weighted_two_tree(n: int, weight) -> str:
    """The document of random_ktree(1, n, 2) with a unique request on the
    smallest color of every vertex v, of weight(v), written as text: the
    request need not be one that Request accepts."""
    inst = random_ktree(1, n, 2, request_kind="")
    lines = [f"request {v} {min(inst.L[v])} {format_fraction(weight(v))}" for v in range(n)]
    return serialize(inst) + "request-kind unique\n" + "\n".join(lines) + "\n"


def prime_weights(n: int) -> str:
    """weighted_two_tree with weight 1/p_v, p_v the (v+1)-th prime: the
    scale is the product of the first n primes."""
    primes = first_primes(n)
    return weighted_two_tree(n, lambda v: Fraction(1, primes[v]))


@pytest.mark.skipif(not MAX_DIGITS, reason="the interpreter converts ints of any size")
class TestRequestDigits:
    """A request whose common denominator or scaled total has more digits
    than int() and str() convert gets one error line and exit status 2;
    one below the limit is answered in full."""

    def error(self, capsys, tmp_path, text, argv) -> str:
        p = tmp_path / "inst.fi"
        p.write_text(text)
        code, out, err = run([argv[0], str(p), *argv[1:]], capsys)
        assert code == 2 and out == "" and len(err.splitlines()) == 1, err
        return err

    def test_two_long_weights_on_a_path(self, capsys, tmp_path):
        # each weight has the most digits a token may have; the two
        # requests are not adjacent, so the optimum is their sum
        w = "9" * MAX_DIGITS
        text = (
            "flexicolor-instance 1\nvertices 4\nedge 0 1\nedge 1 2\nedge 2 3\n"
            + "".join(f"list {v} 1 2\n" for v in range(4))
            + f"request-kind unique\nrequest 0 1 {w}\nrequest 2 1 {w}\n"
        )
        err = self.error(capsys, tmp_path, text, ["oracle"])
        assert err == f"error format request scaled total has more than {MAX_DIGITS} digits\n"

    def test_prime_denominators_past_the_limit(self, capsys, tmp_path):
        err = self.error(capsys, tmp_path, prime_weights(2000), ["solve", "--method", "two-tree"])
        assert err == (
            f"error format request common denominator has more than {MAX_DIGITS} digits\n"
        )

    def test_prime_denominators_below_the_limit(self, capsys, tmp_path):
        # the scale, the product of the first 1000 primes, has about
        # 3,400 digits
        p, res = tmp_path / "inst.fi", tmp_path / "r.txt"
        p.write_text(prime_weights(1000))
        code, _, _ = run(["solve", str(p), "--method", "two-tree", "--out", str(res)], capsys)
        assert code == 0
        # the result document, pinned byte for byte
        assert hashlib.sha256(res.read_bytes()).hexdigest() == (
            "046345a4817c4f4ad85971bd8fc45e93f25e8ec188143006bd49792b1ca0ee78"
        )
        code, out, _ = run(["verify", str(p), str(res)], capsys)
        assert code == 0 and out.endswith(" bound-met=yes\n")

    def test_solve_and_verify_work_doubles_with_n(self, capsys, tmp_path):
        # weights 1/(1 + v mod 12), scale 27,720: solve and verify are
        # linear in n, so doubling it doubles the lines run; a quadratic
        # step, such as rescaling every weight per amount, gives 4
        def work(n):
            p, res = tmp_path / f"inst{n}.fi", tmp_path / f"r{n}.txt"
            p.write_text(weighted_two_tree(n, lambda v: Fraction(1, 1 + v % 12)))

            def solve_and_verify():
                argv = ["solve", str(p), "--method", "two-tree", "--out", str(res)]
                return main(argv), main(["verify", str(p), str(res)])

            lines, codes = lines_run(solve_and_verify)
            assert codes == (0, 0)
            return lines

        ratio = work(4000) / work(2000)
        assert ratio < 3, ratio
        capsys.readouterr()
        # past the limit, the refusal stays one line however long the
        # document
        err = self.error(capsys, tmp_path, prime_weights(4000), ["solve", "--method", "two-tree"])
        assert err == (
            f"error format request common denominator has more than {MAX_DIGITS} digits\n"
        )


class TestEntryPoint:
    ROOT = Path(__file__).resolve().parent.parent

    def test_console_script(self):
        # Runs the declared [project.scripts] target the way an installer's
        # wrapper script does, so no install step is needed.
        tomllib = pytest.importorskip("tomllib")
        with open(self.ROOT / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"].get("scripts", {})
        assert "flexicolor" in scripts
        module, attr = scripts["flexicolor"].split(":")
        wrapper = (
            f"import sys; from {module} import {attr}; "
            f"sys.argv[0] = 'flexicolor'; sys.exit({attr}())"
        )
        env = dict(os.environ)
        paths = [str(self.ROOT / "src"), env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        proc = subprocess.run(
            [sys.executable, "-c", wrapper, "generate", "fig-diamond"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("flexicolor-instance 1"), proc.stderr

    @pytest.mark.skipif(
        shutil.which("flexicolor") is None,
        reason="flexicolor console script not installed",
    )
    def test_installed_console_script(self):
        proc = subprocess.run(
            ["flexicolor", "generate", "fig-diamond"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("flexicolor-instance 1")
