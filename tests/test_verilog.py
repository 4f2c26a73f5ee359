"""Structural Verilog writer/parser round-trip tests."""

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.errors import NetlistError, TechError
from repro.netlist.netlist import Netlist
from repro.netlist.generators import MaeriConfig, generate_maeri
from repro.netlist.verilog import dumps, read_verilog, write_verilog
from repro.rng import SeedBundle
from repro.tech import NODE_28NM, build_library

from tests.conftest import make_chain_netlist

LIB = build_library(NODE_28NM)


def _signature(netlist):
    """Connectivity-complete signature for equality checks."""
    insts = sorted(
        (name, inst.cell.name,
         tuple(sorted((p.name, p.net.name) for p in inst.pins.values()
                      if p.net is not None)))
        for name, inst in netlist.instances.items())
    ports = sorted((p.name, p.direction, p.false_path,
                    p.pin.net.name if p.pin.net else None)
                   for p in netlist.ports.values())
    nets = sorted((n.name, n.is_clock) for n in netlist.nets.values())
    return insts, ports, nets


class TestRoundTrip:
    def test_chain_roundtrip(self, hetero_tech, tmp_path):
        nl = make_chain_netlist(hetero_tech, stages=3)
        path = tmp_path / "chain.v"
        write_verilog(nl, path)
        back = read_verilog(path, hetero_tech.libraries["logic"])
        assert _signature(back) == _signature(nl)

    def test_maeri_roundtrip_with_attrs(self, hetero_tech, tmp_path):
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, SeedBundle(5))
        path = tmp_path / "maeri.v"
        write_verilog(nl, path)
        # Hetero designs read back against the full library dict; each
        # instance resolves in the library its region attr names.
        back = read_verilog(path, hetero_tech.libraries)
        assert len(back.instances) == len(nl.instances)
        assert len(back.nets) == len(nl.nets)
        # Region attrs survive.
        some = next(n for n, i in nl.instances.items()
                    if i.attrs.get("region") == "memory")
        assert back.instance(some).attrs["region"] == "memory"

    def test_multi_library_resolves_per_region(self, hetero_tech,
                                               tmp_path):
        """A 16nm INV and a 28nm INV share a name but not electrical
        models — the importer must pick the region's library, not a
        merged namespace."""
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, SeedBundle(5))
        path = tmp_path / "maeri.v"
        write_verilog(nl, path)
        back = read_verilog(path, hetero_tech.libraries)
        for name, orig in nl.instances.items():
            region = orig.attrs.get("region", "logic")
            expected = hetero_tech.libraries[region].get(orig.cell.name)
            assert back.instance(name).cell is expected

    def test_imported_netlist_flat_roundtrip(self, hetero_tech, tmp_path):
        """Imported netlists go through the same flat (SoA) pickle as
        generated ones — exact structural round trip."""
        import pickle

        from tests.golden_util import netlist_digest
        nl = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                            hetero_tech.libraries, SeedBundle(5))
        path = tmp_path / "maeri.v"
        write_verilog(nl, path)
        imported = read_verilog(path, hetero_tech.libraries)
        restored = pickle.loads(pickle.dumps(imported))
        assert netlist_digest(restored) == netlist_digest(imported)
        assert list(restored.instances) == list(imported.instances)

    def test_clock_marking_survives(self, hetero_tech, tmp_path):
        nl = make_chain_netlist(hetero_tech)
        path = tmp_path / "c.v"
        write_verilog(nl, path)
        back = read_verilog(path, hetero_tech.libraries["logic"])
        assert back.net("clk").is_clock

    def test_escaped_identifiers(self, hetero_tech, tmp_path):
        nl = make_chain_netlist(hetero_tech)
        text = dumps(nl)
        # Hierarchical names like 'launch_1' are plain, but generator
        # names with '/' must be escaped.
        nl2 = generate_maeri(MaeriConfig(pe_count=16, bandwidth=8),
                             hetero_tech.libraries, SeedBundle(5))
        text2 = dumps(nl2)
        assert "\\pe0/" in text2
        assert text.count("module ") == 1  # one module decl (+ endmodule)


class TestFlowImport:
    def test_flow_runs_on_imported_verilog(self, tmp_path, capsys):
        """export -> flow --verilog matches the generate path's contract:
        the full flow (partition/place/route/STA) runs on the import."""
        from repro.cli import main
        out_file = tmp_path / "m16.v"
        assert main(["export", "--benchmark", "maeri16_hetero",
                     "--out", str(out_file)]) == 0
        capsys.readouterr()
        assert main(["flow", "--benchmark", "maeri16_hetero",
                     "--selector", "none",
                     "--verilog", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "wns_ps" in out
        assert f"import {out_file}" in out


class TestParserErrors:
    def test_unknown_cell_rejected(self, tmp_path):
        path = tmp_path / "bad.v"
        path.write_text(
            "module m (a, y);\n  input a;\n  output y;\n"
            "  wire n1;\n  wire n2;\n"
            "  assign n1 = a;\n  assign y = n2;\n"
            "  MYSTERY u0 (.A(n1), .Y(n2));\nendmodule\n")
        with pytest.raises(TechError):
            read_verilog(path, LIB)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.v"
        path.write_text("this is @ not ! verilog")
        with pytest.raises(NetlistError):
            read_verilog(path, LIB)

    def test_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "bad.v"
        path.write_text("module m (a, y);\n  input a;\n  output y;\n"
                        "  wire n1\n  INVX1 u0 (.A(a), .Y(n1));\n"
                        "endmodule\n")
        with pytest.raises(NetlistError) as exc:
            read_verilog(path, LIB)
        assert str(exc.value) == f"{path}:5:3: expected ';', got 'INVX1'"

    def test_tokenizer_error_names_line(self, tmp_path):
        path = tmp_path / "junk.v"
        path.write_text("module m (a);\n\n  input @a;\nendmodule\n")
        with pytest.raises(NetlistError, match=r"junk\.v:3:9: "):
            read_verilog(path, LIB)

    def test_block_comment_keeps_line_numbers(self, tmp_path):
        path = tmp_path / "c.v"
        path.write_text("/* one\n   two\n   three */ module m (a);\n"
                        "  input a\nendmodule\n")
        with pytest.raises(NetlistError,
                           match=r"c\.v:5:1: expected ';'"):
            read_verilog(path, LIB)

    def test_unexpected_end_names_last_line(self, tmp_path):
        path = tmp_path / "short.v"
        path.write_text("module m (a);\n  input")
        with pytest.raises(NetlistError,
                           match=r"short\.v:2:3: unexpected end"):
            read_verilog(path, LIB)

    def test_missing_file_is_a_netlist_error(self, tmp_path):
        with pytest.raises(NetlistError, match="missing"):
            read_verilog(tmp_path / "missing.v", LIB)

    def test_unknown_region_rejected(self, hetero_tech, tmp_path):
        path = tmp_path / "bad_region.v"
        path.write_text(
            "module m (a, y);\n  input a;\n  output y;\n"
            "  wire n1;\n  wire n2;\n"
            "  assign n1 = a;\n  assign y = n2;\n"
            "  (* region = \"analog\" *)\n"
            "  INV u0 (.A(n1), .Y(n2));\nendmodule\n")
        with pytest.raises(TechError, match="analog"):
            read_verilog(path, hetero_tech.libraries)
        # A bare library ignores region attrs entirely (legacy shape).
        nl = read_verilog(path, LIB)
        assert nl.instance("u0").attrs["region"] == "analog"

    def test_comment_keeps_columns(self, tmp_path):
        path = tmp_path / "c.v"
        path.write_text("module m (a);\n  /* x */ input a /* y */ @;\n"
                        "endmodule\n")
        with pytest.raises(NetlistError, match=r"c\.v:2:27: verilog parse"):
            read_verilog(path, LIB)

    def test_escaped_identifier_spanning_lines(self, tmp_path):
        path = tmp_path / "e.v"
        path.write_text("module m (a);\n  input \\a\nb ;\n  wire\n"
                        "endmodule\n")
        with pytest.raises(NetlistError,
                           match=r"e\.v:5:1: unexpected end"):
            read_verilog(path, LIB)

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "c.v"
        path.write_text(
            "// line comment\nmodule m (a, y);\n"
            "  input a;\n  output y;\n"
            "  /* block\n     comment */\n"
            "  wire n1;\n  wire n2;\n"
            "  assign n1 = a;\n  assign y = n2;\n"
            "  INV u0 (.A(n1), .Y(n2));\nendmodule\n")
        nl = read_verilog(path, LIB)
        assert "u0" in nl.instances


# -- fuzz: any text parses or fails with a typed, located error ---------------

_VALID = """module m (a, y);
  input a;
  output y;
  (* clock *)
  wire n1;
  wire n2;
  assign n1 = a;
  assign y = n2;
  (* region = "logic" *)
  INV u0 (.A(n1), .Y(n2));
endmodule
"""

_WORDS = ("module", "endmodule", "input", "output", "wire", "assign",
          "INV", "DFF", "a", "y", "n1", "n2", "u0", "A", "Y", "(", ")",
          ".", ",", ";", "=", "(* clock *)", "(* false_path *)",
          '(* region = "logic" *)', "\\pe0/x ", "//", "/*", "*/", "@",
          "\n", " ")

_SOUPS = st.lists(st.sampled_from(_WORDS), max_size=40).map(" ".join)


@st.composite
def _mutants(draw):
    """The valid module with a few token edits, or cut short."""
    tokens = _VALID.replace("(", " ( ").replace(")", " ) ").split(" ")
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(("drop", "dup", "swap", "replace")))
        if edit == "drop":
            del tokens[at]
        elif edit == "dup":
            tokens.insert(at, tokens[at])
        elif edit == "swap":
            other = draw(st.integers(0, len(tokens) - 1))
            tokens[at], tokens[other] = tokens[other], tokens[at]
        else:
            tokens[at] = draw(st.sampled_from(_WORDS))
        if not tokens:
            break
    text = " ".join(tokens)
    return text[:draw(st.integers(0, len(text)))]


class TestParserFuzz:
    """Every input yields a netlist or a typed error that names the
    file: a :class:`NetlistError`, or for an unknown cell or region a
    :class:`TechError` (``test_unknown_cell_rejected``).  Errors of one
    statement carry its ``line:col``; only a whole-netlist check
    (``Netlist.validate``) names the file alone."""

    @staticmethod
    def _parse(tmp_path_factory, text: str, library) -> None:
        path = tmp_path_factory.mktemp("fuzz") / "f.v"
        path.write_text(text)
        try:
            assert isinstance(read_verilog(path, library), Netlist)
        except (NetlistError, TechError) as exc:
            where = re.match(re.escape(str(path)) + r":(?:(\d+):(\d+):)? ",
                             str(exc))
            assert where, str(exc)
            if where.group(1):
                assert int(where.group(1)) >= 1
                assert int(where.group(2)) >= 1

    @given(text=_SOUPS)
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_token_soup(self, tmp_path_factory, hetero_tech, text):
        self._parse(tmp_path_factory, text, hetero_tech.libraries)

    @given(text=_mutants())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_module(self, tmp_path_factory, text):
        self._parse(tmp_path_factory, text, LIB)

    def test_valid_module_parses(self, tmp_path):
        path = tmp_path / "ok.v"
        path.write_text(_VALID)
        nl = read_verilog(path, LIB)
        assert nl.instance("u0").cell.name == "INV"
        assert nl.net("n1").is_clock
