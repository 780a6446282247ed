"""Unit tests for generators, the canonical JSON document format and the CLI."""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import detline
from detline import (
    ValidationError,
    build_signature,
    chiral_direct_sum,
    deserialize_document,
    gen_elementary,
    gen_harmonic,
    gen_random,
    graded_det_finite,
    random_profile,
    refined_torsion,
    serialize_document,
    spectral_split,
    torsion_via_split,
    validate_chirality,
)
from detline.cli import main
from detline.selftest import _instance, run_selftest


class TestGenerators:
    def test_elementary_running_example(self):
        c, g = gen_elementary(1, 0, 2.0)
        assert c.dims.dims == (1, 1)
        np.testing.assert_allclose(c.partial[0], [[2.0]])
        np.testing.assert_allclose(g.gamma[0], [[1.0]])

    def test_elementary_has_mirror_block(self):
        c, g = gen_elementary(3, 0, 1.5)
        assert c.dims.dims == (1, 1, 1, 1)
        assert c.differential_residual() <= 1e-10
        validate_chirality(c, g)

    def test_elementary_rejects_bad_input(self):
        with pytest.raises(ValidationError):
            gen_elementary(2, 0, 1.0)  # even top degree
        with pytest.raises(ValidationError):
            gen_elementary(3, 2, 1.0)  # block degree out of range
        with pytest.raises(ValidationError):
            gen_elementary(3, 0, 0.0)  # not acyclic

    def test_harmonic_summand(self):
        c, g = gen_harmonic(3, 1)
        assert c.dims.dims == (0, 1, 1, 0)
        assert all(np.all(m == 0) for m in c.partial)
        validate_chirality(c, g)

    def test_direct_sum_keeps_validity(self):
        parts = [gen_elementary(3, 0, 2.0), gen_harmonic(3, 0),
                 gen_elementary(3, 1, 1.0 + 1.0j)]
        c, g = chiral_direct_sum(parts)
        assert c.differential_residual() <= 1e-10
        validate_chirality(c, g)

    def test_direct_sum_places_blocks_by_offsets(self):
        parts = [gen_random(3, 3), gen_harmonic(3, 1),
                 gen_elementary(3, 1, 1.0 + 1.0j)]
        c, g = chiral_direct_sum(parts)
        # offset-placement oracle: summand i occupies the coordinates after
        # those of summands 0..i-1 in every degree
        dims = [sum(p[0].dims.dims[q] for p in parts) for q in range(4)]
        partial = [np.zeros((dims[q + 1], dims[q]), dtype=complex)
                   for q in range(3)]
        gamma = [np.zeros((dims[3 - q], dims[q]), dtype=complex)
                 for q in range(4)]
        off = [0] * 4
        for pc, pg in parts:
            n = pc.dims.dims
            for q in range(3):
                partial[q][off[q + 1]:off[q + 1] + n[q + 1],
                           off[q]:off[q] + n[q]] = pc.partial[q]
            for q in range(4):
                gamma[q][off[3 - q]:off[3 - q] + n[3 - q],
                         off[q]:off[q] + n[q]] = pg.gamma[q]
            off = [o + k for o, k in zip(off, n)]
        assert c.dims.dims == tuple(dims)
        for got, want in zip(c.partial + g.gamma, partial + gamma):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_random_is_deterministic(self):
        a = gen_random(1234, 3)
        b = gen_random(1234, 3)
        assert a[0].dims == b[0].dims
        for m1, m2 in zip(a[0].partial, b[0].partial):
            np.testing.assert_array_equal(m1, m2)
        for m1, m2 in zip(a[1].gamma, b[1].gamma):
            np.testing.assert_array_equal(m1, m2)

    def test_random_profile_controls_acyclicity(self):
        rng = np.random.default_rng(7)
        prof = random_profile(rng, 3, acyclic=True)
        assert prof["harmonic"] == []
        c, g = gen_random(7, 3, prof)
        assert c.differential_residual() <= 1e-10
        validate_chirality(c, g)

    def test_random_checks_each_instance_once(self, count_validations):
        # three summands, then the conjugated instance straight from their
        # blocks: no direct sum in between
        profile = {"blocks": [(0, 1.5), (1, 0.5 + 1.0j)], "harmonic": [2]}
        checks = count_validations()
        c, g = gen_random(5, 3, profile)
        assert checks == {"d.d": 4, "gamma^2": 4}
        shapes_c = tuple(m.shape for m in c.partial)
        shapes_g = tuple(m.shape for m in g.gamma)
        assert checks.shapes("d.d").count(shapes_c) == 1
        assert checks.shapes("gamma^2").count(shapes_g) == 1

    def test_random_unitary_chirality_is_self_adjoint(self):
        c, g = gen_random(8, 3, unitary=True)
        for j in range(4):
            np.testing.assert_allclose(g.gamma[j],
                                       g.gamma[3 - j].conj().T, atol=1e-12)


class TestDocuments:
    def test_round_trip_is_byte_identical(self):
        for seed in (1, 2, 3):
            c, g = gen_random(seed, 3)
            text = serialize_document(c, g, metadata={"seed": seed})
            c2, g2, meta = deserialize_document(text)
            assert meta == {"seed": str(seed)}
            assert serialize_document(c2, g2, metadata=meta) == text

    def test_document_is_plain_json(self):
        c, g = gen_elementary(1, 0, 2.0)
        doc = json.loads(serialize_document(c, g))
        assert doc["d"] == 1
        assert doc["dims"] == [1, 1]
        assert doc["differential"][0][0][0] == [2.0, 0.0]

    def test_chirality_is_optional(self):
        c, _ = gen_elementary(1, 0, 2.0)
        c2, g2, _ = deserialize_document(serialize_document(c))
        assert g2 is None
        assert c2.dims == c.dims

    def test_rejects_malformed_documents(self):
        with pytest.raises(ValidationError):
            deserialize_document("not json")
        with pytest.raises(ValidationError):
            deserialize_document("{}")
        with pytest.raises(ValidationError):
            deserialize_document('{"d":1,"dims":[1,1],"differential":[[[[1]]]]}')
        with pytest.raises(ValidationError):
            deserialize_document('{"d":Infinity,"dims":[1,1]}')

    @pytest.mark.parametrize("field,value", [
        ("d", 3.5), ("d", "3"), ("d", True), ("dims", 1.9), ("dims", True)],
        ids=["d-3.5", "d-string", "d-true", "dims-1.9", "dims-true"])
    def test_header_must_hold_json_integers(self, tmp_path, capsys, field,
                                            value):
        # d = True stands for 1 on the d = 1 running example, a dims entry of
        # 1.9 or True for its 1; d = 3.5 and "3" go on a d = 3 document
        if field == "d" and value is not True:
            doc = json.loads(serialize_document(*gen_random(2, 3)))
        else:
            doc = json.loads(serialize_document(*gen_elementary(1, 0, 2.0)))
        if field == "d":
            doc["d"] = value
        else:
            doc["dims"][-1] = value
        text = json.dumps(doc)
        with pytest.raises(ValidationError):
            deserialize_document(text)
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["torsion", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_negative_dimension_exits_2(self, tmp_path, capsys):
        # with d = 0 no differential's shape checks the dimension
        text = '{"d":0,"dims":[-1],"differential":[]}'
        with pytest.raises(ValidationError):
            deserialize_document(text)
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["torsion", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_rejects_non_finite_numbers(self):
        c, g = gen_elementary(1, 0, 2.0)
        # a complex cannot hold a NaN, so a stand-in carries one to the
        # serializer's own guard
        broken = SimpleNamespace(d=c.d, dims=c.dims,
                                 partial=(np.array([[float("nan")]]),))
        with pytest.raises(ValidationError):
            serialize_document(broken, g)


@pytest.fixture
def doc_path(tmp_path):
    c, g = gen_elementary(1, 0, 2.0)
    path = tmp_path / "elementary.json"
    path.write_text(serialize_document(c, g), encoding="utf-8")
    return str(path)


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
import detline
from detline.cli import main
sys.exit(main(sys.argv[1:]) if sys.argv[1:] else 0)
"""


class TestWithoutScipy:
    """numpy is the only runtime dependency: the package imports, and every
    subcommand runs, in an interpreter where scipy cannot be imported."""

    @pytest.fixture(scope="class")
    def cohomology_doc(self, tmp_path_factory):
        # seed 2, d = 3 with cohomology: both degree pairs split properly at
        # 0 (the zero cluster) and at the mid-gap level
        c, g = _instance(2, 3, acyclic=False)
        mods = np.unique(np.round(np.concatenate(
            [np.abs(np.linalg.eigvals(build_signature(c, g).bsq_block(j)))
             for j in range(c.d + 1)]), 6))
        mods = mods[mods > 1e-4]
        k = len(mods) // 2
        mid = float(0.5 * (mods[k - 1] + mods[k]))
        for lam in (0.0, mid):
            small = spectral_split(c, g, lam).small.bases
            assert all(0 < small[j].shape[1] < c.dims.dims[j]
                       for j in range(2))
        path = tmp_path_factory.mktemp("noscipy") / "d3.json"
        path.write_text(serialize_document(c, g), encoding="utf-8")
        return str(path), mid

    @pytest.mark.parametrize("argv", [
        [], ["selftest"], ["torsion", "DOC"], ["split", "DOC", "--lambda=0"],
        ["split", "DOC", "--lambda=MID"], ["circle", "--a", "0.3,0.2"]],
        ids=["import", "selftest", "torsion", "split-zero", "split-mid-gap",
             "circle"])
    def test_subcommand_exits_0(self, cohomology_doc, argv):
        doc, mid = cohomology_doc
        argv = [a.replace("DOC", doc).replace("MID", repr(mid))
                for a in argv]
        src = str(pathlib.Path(detline.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY, *argv],
                              capture_output=True, text=True, env=env,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestCli:
    def test_torsion_subcommand(self, doc_path, capsys):
        assert main(["torsion", doc_path]) == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["torsion"], [2.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(out["graded_det"], [2.0, 0.0], atol=1e-12)
        assert out["betti"] == [0, 0]

    def test_torsion_builds_one_frame(self, tmp_path, capsys, monkeypatch):
        import detline.cli
        import detline.signature
        import detline.torsion
        calls = {"cohomology_frame": 0, "c_gamma": 0}
        for mod in (detline.cli, detline.signature, detline.torsion):
            for name in calls:
                if hasattr(mod, name):
                    def spy(*args, _orig=getattr(mod, name), _name=name):
                        calls[_name] += 1
                        return _orig(*args)
                    monkeypatch.setattr(mod, name, spy)
        path = tmp_path / "d3.json"
        path.write_text(serialize_document(*gen_random(5, 3)),
                        encoding="utf-8")
        assert main(["torsion", str(path)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["graded_det"] is not None
        assert calls == {"cohomology_frame": 1, "c_gamma": 1}

    def test_split_above_the_spectrum_builds_one_torsion(
            self, tmp_path, capsys, monkeypatch):
        # the small part is then the complex itself, and its torsion is the
        # refined torsion the report prints
        import detline.cli
        import detline.signature
        import detline.torsion
        c, g = gen_random(5, 3)
        lam = 2.0 * max(float(np.abs(np.linalg.eigvals(
            build_signature(c, g).bsq_block(j))).max())
            for j in range(c.d + 1) if c.dims.dims[j])
        rho = refined_torsion(c, g).coeff
        via = torsion_via_split(c, g, lam).coeff
        calls = {"phi": 0, "c_gamma": 0}
        for mod in (detline.cli, detline.signature, detline.torsion):
            for name in calls:
                if hasattr(mod, name):
                    def spy(*args, _orig=getattr(mod, name), _name=name):
                        calls[_name] += 1
                        return _orig(*args)
                    monkeypatch.setattr(mod, name, spy)
        path = tmp_path / "d3.json"
        path.write_text(serialize_document(c, g), encoding="utf-8")
        assert main(["split", str(path), f"--lambda={lam!r}"]) == 0
        text = capsys.readouterr().out
        out = json.loads(text)
        assert calls == {"phi": 1, "c_gamma": 1}
        assert out["d_large"] == [0] * (c.d + 1)
        assert out["refined_torsion"] == [rho.real, rho.imag]
        assert out["torsion_via_split"] == [via.real, via.imag]
        assert text == json.dumps(out, allow_nan=False) + "\n"

    def test_split_subcommand(self, doc_path, capsys):
        assert main(["split", doc_path, "--lambda", "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["consistent"]
        assert out["d_small"] == [0, 0]

    def test_split_boundary_exit_code(self, doc_path, capsys):
        # lambda right on the B^2 eigenvalue 4
        assert main(["split", doc_path, "--lambda", "4.0"]) == 3

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_split_rejects_non_finite_lambda(self, doc_path, capsys, lam):
        assert main(["split", doc_path, f"--lambda={lam}"]) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("lam", ["0", "1"])
    def test_split_of_overflowing_b_squared_exits_3(self, tmp_path, capsys,
                                                    lam):
        # z^2 = 1e400 overflows B^2; the torsion itself, 1e200, is finite
        path = tmp_path / "big.json"
        path.write_text(serialize_document(*gen_elementary(1, 0, 1e200)),
                        encoding="utf-8")
        assert main(["split", str(path), "--lambda", lam]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "degree 0" in captured.err and "not finite" in captured.err
        assert main(["torsion", str(path)]) == 0

    def test_malformed_document_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        assert main(["torsion", str(bad)]) == 2

    def test_missing_file_exit_code(self, tmp_path):
        assert main(["torsion", str(tmp_path / "absent.json")]) == 2

    def test_circle_subcommand(self, capsys):
        assert main(["circle", "--a", "0.25"]) == 0
        out = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(out["rho_an"], [1.0, -1.0], atol=1e-10)
        np.testing.assert_allclose(out["rs_norm_value"], 1.0, atol=1e-10)

    def test_circle_rejects_bad_holonomy(self, capsys):
        assert main(["circle", "--a", "1.5"]) == 2
        assert main(["circle", "--a", "zebra"]) == 2

    @pytest.mark.parametrize("field", ["differential", "chirality"])
    @pytest.mark.parametrize("entry", [float("nan"), float("inf"),
                                       float("-inf"), True, 10 ** 400],
                             ids=["nan", "inf", "-inf", "true", "big-int"])
    def test_non_finite_or_boolean_entry_exits_2(self, tmp_path, capsys,
                                                 field, entry):
        # the running example, where a true in place of a 2 or a 1 would
        # pass every other check; 10**400 is an integer beyond the float range
        doc = json.loads(serialize_document(*gen_elementary(1, 0, 2.0)))
        doc[field][0][0][0][0] = entry
        text = json.dumps(doc)  # writes NaN / Infinity / true tokens
        with pytest.raises(ValidationError):
            deserialize_document(text)
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["torsion", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_non_finite_result_exits_3(self, tmp_path, capsys):
        # log|rho| = 200 log 50 ~ 782 overflows a double
        c, g = gen_random(0, 1, {"blocks": [(0, 50.0)] * 200, "harmonic": []})
        path = tmp_path / "overflow.json"
        path.write_text(serialize_document(c, g), encoding="utf-8")
        assert main(["torsion", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "'torsion'" in captured.err

    def test_selftest_default_run_prints_strict_json(self, capsys):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        assert main(["selftest"]) == 0
        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert out["passed"] is True
        assert len(out["checks"]) == 27
        assert all(chk["passed"] for chk in out["checks"])

    def test_selftest_subcommand(self, capsys):
        assert main(["selftest", "--cases", "2", "--seed", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True
        assert all(chk["passed"] for chk in out["checks"])

    @pytest.mark.parametrize("cases", ["0", "-5"])
    def test_selftest_rejects_cases_below_one(self, capsys, cases):
        assert main(["selftest", "--cases", cases]) == 2
        assert capsys.readouterr().out == ""
        with pytest.raises(ValidationError):
            run_selftest(cases=int(cases))

    @pytest.mark.parametrize("seed", ["-1", "-12345"])
    def test_selftest_rejects_a_negative_seed(self, capsys, seed):
        # numpy's generators take no negative seed; that is bad input, not a
        # failed check
        assert main(["selftest", "--cases", "1", "--seed", seed]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be nonnegative" in captured.err
        with pytest.raises(ValidationError, match="seed must be nonnegative"):
            run_selftest(cases=1, seed=int(seed))


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@st.composite
def _documents(draw):
    """Serialized gen_elementary / gen_random instances with |z| up to
    1e200, as a JSON object, each with or without one mutation: an entry
    set to 0 or +-1e300, or a row dropped."""
    d = draw(st.sampled_from([1, 3, 5]))
    r = (d + 1) // 2

    def coeff():
        modulus = 10.0 ** draw(st.floats(-2.0, 200.0))
        return modulus * complex(np.exp(1j * draw(st.floats(-3.2, 3.2))))

    if draw(st.booleans()):
        pair = gen_elementary(d, draw(st.integers(0, r - 1)), coeff())
    else:
        blocks = [(draw(st.integers(0, r - 1)), coeff())
                  for _ in range(draw(st.integers(1, 3)))]
        harmonic = draw(st.lists(st.integers(0, d), max_size=2))
        pair = gen_random(draw(st.integers(0, 2 ** 16)), d,
                          {"blocks": blocks, "harmonic": harmonic})
    doc = json.loads(serialize_document(*pair))
    mutation = draw(st.sampled_from([None, 0.0, 1e300, -1e300, "drop"]))
    if mutation is not None:
        field = draw(st.sampled_from(["differential", "chirality"]))
        mats = [m for m in doc[field] if m and m[0]]
        m = draw(st.sampled_from(mats))
        row = draw(st.integers(0, len(m) - 1))
        if mutation == "drop":
            del m[row]
        else:
            entry = m[row][draw(st.integers(0, len(m[row]) - 1))]
            entry[draw(st.integers(0, 1))] = mutation
    return doc


class TestCliFuzz:
    """torsion and split keep the 0/2/3 contract on generated documents,
    intact or mutated: exit 0 with strict JSON on stdout, or exit 2 or 3
    with nothing on stdout, and never an exception."""

    @settings(max_examples=120, derandomize=True, deadline=None)
    @given(doc=_documents())
    def test_exit_code_and_stdout(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["torsion"], ["split", "--lambda", "0"],
                     ["split", "--lambda", "1"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = main([argv[0], str(path), *argv[1:]])
            assert code in (0, 2, 3)
            if code == 0:
                json.loads(out.getvalue(), parse_constant=_reject_constant)
            else:
                assert out.getvalue() == ""
