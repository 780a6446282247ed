"""Unit tests for generators, the canonical JSON document format and the CLI."""

import contextlib
import dataclasses
import hashlib
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
from detline import workbench
from detline.cli import main
from detline.selftest import _instance, run_selftest

from conftest import BIG_PROFILE, traced_peak


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
        for bad in (2, 0, -1):
            with pytest.raises(ValidationError, match="top degree"):
                gen_elementary(bad, 0, 1.0)
        with pytest.raises(ValidationError,
                           match=r"block degree 2 out of range \[0, 2\)"):
            gen_elementary(3, 2, 1.0)
        with pytest.raises(ValidationError, match="needs z != 0"):
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
        # three summands written straight into one block sum, which is
        # conjugated: the returned pair is the only one checked, and each
        # one-summand generator checks only its own pair
        profile = {"blocks": [(0, 1.5), (1, 0.5 + 1.0j)], "harmonic": [2]}
        checks = count_validations()
        c, g = gen_random(5, 3, profile)
        assert checks == {"d.d": 1, "gamma^2": 1}
        assert checks.shapes("d.d") == [tuple(m.shape for m in c.partial)]
        assert checks.shapes("gamma^2") == [tuple(m.shape for m in g.gamma)]
        gen_elementary(3, 1, 2.0)
        assert checks == {"d.d": 2, "gamma^2": 2}
        gen_harmonic(3, 0)
        assert checks == {"d.d": 3, "gamma^2": 3}

    @pytest.mark.parametrize("seed,d", [
        (1, 0), (1, -1), (1, 2), (1, 3.0), (1, True), (1, "3"),
        (-1, 3), (1.5, 3), (True, 3), ("1", 3)])
    @pytest.mark.parametrize("profile", [
        None, {"blocks": [(0, 1.5)], "harmonic": []}], ids=["drawn", "given"])
    def test_random_rejects_bad_degree_or_seed_before_drawing(
            self, monkeypatch, seed, d, profile):
        # every stream opened must still be at its start
        real, opened = np.random.default_rng, []

        def spy(s):
            opened.append((s, real(s)))
            return opened[-1][1]
        monkeypatch.setattr(np.random, "default_rng", spy)
        with pytest.raises(ValidationError, match="seed|top degree"):
            gen_random(seed, d, profile)
        for s, rng in opened:
            assert rng.bit_generator.state == real(s).bit_generator.state

    @pytest.mark.parametrize("d,max_blocks", [
        (0, 3), (-1, 3), (2, 3), (3.0, 3), (3, 0), (3, 1.5)])
    def test_profile_rejects_bad_degree_before_drawing(self, d, max_blocks):
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ValidationError, match="top degree|max_blocks"):
            random_profile(rng, d, max_blocks=max_blocks)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("profile,message", [
        ({"blocks": [(2, 1.0)]}, r"block degree 2 out of range \[0, 2\)"),
        ({"blocks": [(-1, 1.0)]}, r"block degree -1 out of range"),
        ({"blocks": [(0.5, 1.0)]}, r"block degree 0.5 out of range"),
        ({"blocks": [(0, 0.0)]}, "acyclic block needs z != 0"),
        ({"harmonic": [4]}, "degree out of range"),
        ({"harmonic": [-1]}, "degree out of range"),
        ({"blocks": [], "harmonic": []}, "profile generates an empty complex"),
        ({}, "profile generates an empty complex")])
    def test_random_keeps_its_profile_messages(self, profile, message):
        with pytest.raises(ValidationError, match=message):
            gen_random(1, 3, profile)

    def test_harmonic_rejects_bad_input(self):
        for bad in (2, 0, -1):
            with pytest.raises(ValidationError, match="top degree"):
                gen_harmonic(bad, 0)
        with pytest.raises(ValidationError, match="degree out of range"):
            gen_harmonic(3, 4)

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    def test_random_equals_conjugated_direct_sum(self, d):
        # the reference route: the direct sum of one-summand pairs,
        # conjugated by the same draws.  The arithmetic of every entry is
        # the same, so the arrays must be equal on any BLAS
        for seed in range(4):
            prof = random_profile(np.random.default_rng(seed), d,
                                  acyclic=seed % 2 == 0)
            parts = [gen_elementary(d, j, z) for j, z in prof["blocks"]]
            parts += [gen_harmonic(d, k) for k in prof["harmonic"]]
            cs, gs = chiral_direct_sum(parts)
            for unitary in (False, True):
                c, g = gen_random(seed, d, prof, unitary)
                rng = np.random.default_rng(seed)
                p = [workbench._well_conditioned(rng, n, unitary)
                     for n in cs.dims.dims]
                pinv = [m.conj().T if unitary else
                        np.linalg.inv(m) if m.size else m for m in p]
                assert c.dims == cs.dims
                for q in range(d):
                    assert np.array_equal(
                        c.partial[q], p[q + 1] @ cs.partial[q] @ pinv[q])
                for q in range(d + 1):
                    assert np.array_equal(
                        g.gamma[q], p[d - q] @ gs.gamma[q] @ pinv[q])

    def test_random_unitary_chirality_is_self_adjoint(self):
        c, g = gen_random(8, 3, unitary=True)
        for j in range(4):
            np.testing.assert_allclose(g.gamma[j],
                                       g.gamma[3 - j].conj().T, atol=1e-12)


def _digest(pairs) -> str:
    """SHA-256 of the canonical documents of (complex, chirality) pairs, one
    per line."""
    text = "\n".join(serialize_document(c, g) for c, g in pairs)
    return hashlib.sha256(text.encode()).hexdigest()


def _random_instances():
    """gen_random for d = 1, 3, 5, 7: drawn acyclic profiles (two seeds),
    drawn profiles with harmonic summands, unitary conjugation with and
    without them, then a mixed and a harmonic-only fixed profile."""
    for d in (1, 3, 5, 7):
        yield gen_random(0, d)
        yield gen_random(1, d)
        yield gen_random(d, d, random_profile(np.random.default_rng(d), d,
                                              acyclic=False))
        yield gen_random(10 + d, d, unitary=True)
        yield gen_random(20 + d, d, random_profile(
            np.random.default_rng(20 + d), d, acyclic=False), unitary=True)
    yield gen_random(5, 3, {"blocks": [(0, 1.5), (1, 0.5 + 1.0j)],
                            "harmonic": [2]})
    yield gen_random(4, 5, {"blocks": [], "harmonic": [0, 2, 2]})


def _blas_fingerprint() -> str:
    """Digest of small complex QR, product and inverse results, the
    operations gen_random conjugates with.  OpenBLAS picks its kernel by
    CPU, and kernels that round these alike share a fingerprint."""
    rng = np.random.default_rng(0)
    out = hashlib.sha256()
    for n in range(1, 9):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        m = np.linalg.qr(a)[0] @ np.diag(rng.uniform(0.7, 1.5, size=n)) @ a
        out.update(m.tobytes())
        out.update(np.linalg.inv(m).tobytes())
    return out.hexdigest()[:16]


# each entry of an elementary block or harmonic summand is z, 1 or 0, so
# these digests hold under any BLAS
ELEMENTARY_DIGESTS = {
    1: "471598dc57bac3eed623dea4455ca36ba00bf5d7d0246cf484997e4d54cf322f",
    3: "fc01b2a52fbf805d79b7377ba481343d47302e4935219ec89af9d5a248888f94",
    5: "22a313142ae65fba3999e19cc5f9eb4baab36d5ed8fd868e403a8fdb410ec72c",
    7: "c1395c80f07dbb6789cc244a81247080857c977621b27e62ed625356526f1563",
}
HARMONIC_DIGESTS = {
    1: "6586af5eb5673a18e4cdd4d0011016a4bac600e4d469f47ca2e45cbd27fc26f4",
    3: "1f5ba1d244f86492acf3bdeb3c0fa58a9f1c705d3f94ded164ea7cb8fbbaf991",
    5: "2a76f1230feed2a1fd6a1e18be353b57f7319a2c9548d7a35a85125a52b30d58",
    7: "98fbed82be6a6b7ad34087bcacbdc87e8e6ec996c71ec4d5f5bfd63be7ce6de0",
}
# digest of every _random_instances document, per BLAS fingerprint; the
# kernels are OpenBLAS's (numpy 2.4), each forced with OPENBLAS_CORETYPE
RANDOM_DIGESTS = {
    # OpenBLAS SkylakeX, Cooperlake, SapphireRapids (AVX-512)
    "c13149a608a70f8d":
        "f0285763e8432c5fefc7d6df4ef95845acc1e76a435be12fc4daa3ef6ba4139b",
    # Haswell, Zen (AVX2)
    "6d10d545cdf66222":
        "4545f872239515b1394f0bd889233b310375ab322744710bc1679741831383b6",
    # Sandybridge, Bulldozer and its successors (AVX)
    "897e3544646909db":
        "e71bf5e7308b3b66472ef9105aec207d81bc99808b3604c0dd5e76c0fda490fa",
    # Nehalem, Atom, Barcelona
    "24c49a1f66dfdebf":
        "dc89ea8e6f3fbd56c6c399635a50916748174aa53742f67dc154a0d8d1d80f33",
    # Prescott, Core2
    "5ba6c5ebb3f1c42c":
        "fcccdeef25c756eba4eb98343f9b89e95c943a2ad692de55f2f551ed59d3874d",
}


class TestGeneratorDigests:
    """Generator output pinned bit for bit: a rewrite must reproduce every
    document, not only its numbers within a tolerance."""

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    def test_elementary_blocks(self, d):
        pairs = [gen_elementary(d, j, z) for j in range((d + 1) // 2)
                 for z in (2.0, -0.4 + 1.1j, 1e-3j)]
        assert _digest(pairs) == ELEMENTARY_DIGESTS[d]

    @pytest.mark.parametrize("d", [1, 3, 5, 7])
    def test_harmonic_summands(self, d):
        pairs = [gen_harmonic(d, k) for k in range(d + 1)]
        assert _digest(pairs) == HARMONIC_DIGESTS[d]

    def test_random_instances(self):
        fingerprint = _blas_fingerprint()
        if fingerprint not in RANDOM_DIGESTS:
            pytest.skip(f"no digest recorded for BLAS fingerprint "
                        f"{fingerprint}")
        assert _digest(_random_instances()) == RANDOM_DIGESTS[fingerprint]


class TestGeneratorMemory:
    def test_random_conjugates_in_place(self):
        # each block is replaced by its conjugate as its degree comes up,
        # with one inverse alive at a time, and each conjugator's Gaussian
        # is drawn into one complex array; on two 200 x 200 degrees the
        # traced peak measures 10.1 such matrices
        assert traced_peak(gen_random, 7, 1, BIG_PROFILE) <= 10.2


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

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "document must be a JSON object"),
        (lambda doc: {**doc, "dims": [1, 1, 1]}, "dims length must be d+1"),
        (lambda doc: {**doc, "differential": []},
         "differential must list d matrices"),
        (lambda doc: {**doc, "chirality": doc["chirality"][:1]},
         "chirality must list d+1 matrices"),
        (lambda doc: {**doc, "metadata": 5}, "metadata must be an object"),
        (lambda doc: {k: v for k, v in doc.items() if k != "chirality"},
         "document carries no chirality matrices"),
    ], ids=["not-an-object", "dims-length", "differential-length",
            "chirality-length", "metadata-5", "no-chirality"])
    def test_malformed_structure_exits_2(self, tmp_path, capsys, edit,
                                         message):
        doc = json.loads(serialize_document(*gen_elementary(1, 0, 2.0)))
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(edit(doc)), encoding="utf-8")
        assert main(["torsion", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_negative_dimension_exits_2(self, tmp_path, capsys):
        # with d = 0 no differential's shape checks the dimension
        text = '{"d":0,"dims":[-1],"differential":[]}'
        with pytest.raises(ValidationError):
            deserialize_document(text)
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["torsion", str(path)]) == 2
        assert capsys.readouterr().out == ""

    def test_oversized_dimensions_exit_2_without_allocating(self, tmp_path):
        # a 1 x 10^15 differential: every row's length is checked before the
        # 14 PiB matrix would be allocated
        text = ('{"d":1,"dims":[1000000000000000,1],"differential":[[[]]],'
                '"chirality":[[[]],[[]]],"metadata":{}}')
        with pytest.raises(ValidationError, match="row 0 must have"):
            deserialize_document(text)
        path = tmp_path / "big.json"
        path.write_text(text, encoding="utf-8")
        src = str(pathlib.Path(detline.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "detline.cli", "torsion", str(path)],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 2, proc.stderr[-2000:]
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

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
        # the report and the graded determinant each read the frame of the
        # document's complex, which factorizes it on the first read only
        import detline.cli
        import detline.complexes
        import detline.signature
        import detline.torsion
        calls = {"cohomology_frame": 0, "_frame_bases": 0, "c_gamma": 0}
        for mod in (detline.cli, detline.complexes, detline.signature,
                    detline.torsion):
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
        assert calls == {"cohomology_frame": 2, "_frame_bases": 1,
                         "c_gamma": 1}

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

    @pytest.mark.parametrize("shift", [0.0, 5e-9, 5e-8])
    def test_split_report_applies_the_bound_it_states(
            self, tmp_path, capsys, monkeypatch, shift):
        # shift moves the split torsion by that relative amount, to either
        # side of the bound
        import detline.cli
        orig = detline.cli._torsion_from_split

        def shifted(split, frame):
            via, det_large, rho_small = orig(split, frame)
            return (dataclasses.replace(via, coeff=via.coeff * (1 + shift)),
                    det_large, rho_small)
        monkeypatch.setattr(detline.cli, "_torsion_from_split", shifted)
        seen = set()
        for d in (1, 3, 5):
            for acyclic in (True, False):
                c, g = _instance(70 + d, d, acyclic)
                path = tmp_path / f"{d}-{acyclic}.json"
                path.write_text(serialize_document(c, g), encoding="utf-8")
                for lam in ("0", "1e6"):
                    assert main(["split", str(path), "--lambda", lam]) == 0
                    out = json.loads(capsys.readouterr().out)
                    assert out["tolerance"] == 1e-8
                    assert out["consistent"] == (
                        out["consistency_residual"] <= out["tolerance"])
                    seen.add(out["consistent"])
        assert seen == {shift < 1e-8}

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
        assert captured.err == ("numerical boundary: the cohomology element "
                                "overflows the float range\n")

    @pytest.mark.parametrize("argv, message", [
        (["torsion"],
         "the cohomology element underflows the float range"),
        (["split", "--lambda", "1"],
         "the cohomology element underflows the float range"),
        (["split", "--lambda", "0"],
         "the determinant of B_even underflows the float range"),
    ], ids=["torsion", "split-above", "split-at-0"])
    @pytest.mark.parametrize("n", [182, 188, 200])
    def test_underflowing_torsion_exits_3(self, tmp_path, capsys, argv,
                                          message, n):
        # |rho| = 0.02^n: 6.1e-310 at n = 182 and 3.9e-320 at n = 188 are
        # subnormal, their digits lost, and 1.6e-340 at n = 200 rounds to
        # 0; rho is never 0, so each is an underflow, not a value
        c, g = gen_random(1, 1, {"blocks": [(0, 0.02)] * n, "harmonic": []})
        path = tmp_path / "underflow.json"
        path.write_text(serialize_document(c, g), encoding="utf-8")
        assert main([argv[0], str(path), *argv[1:]]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"numerical boundary: {message}\n"

    @pytest.mark.parametrize("n", [180, 181])
    def test_split_residual_is_relative_near_the_edge(self, tmp_path,
                                                       capsys, n):
        # |rho| = 1.5e-306 and 3.1e-308: consistency_residual is relative
        # to rho itself, not to a floor above it
        c, g = gen_random(1, 1, {"blocks": [(0, 0.02)] * n, "harmonic": []})
        path = tmp_path / "edge.json"
        path.write_text(serialize_document(c, g), encoding="utf-8")
        assert main(["split", str(path), "--lambda", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        via = complex(*out["torsion_via_split"])
        rho = complex(*out["refined_torsion"])
        assert out["consistency_residual"] == abs(via - rho) / abs(rho)
        assert 1e-15 < out["consistency_residual"] <= out["tolerance"]

    def test_last_normal_torsion_exits_0(self, tmp_path, capsys):
        # 0.02^181 = 3.06e-308 lies just above the least normal double
        c, g = gen_random(1, 1, {"blocks": [(0, 0.02)] * 181, "harmonic": []})
        path = tmp_path / "normal.json"
        path.write_text(serialize_document(c, g), encoding="utf-8")
        assert main(["torsion", str(path)]) == 0
        rho = complex(*json.loads(capsys.readouterr().out)["torsion"])
        assert abs(rho) >= sys.float_info.min
        assert abs(abs(rho) - 0.02 ** 181) <= 1e-9 * 0.02 ** 181

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
