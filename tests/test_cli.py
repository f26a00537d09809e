"""End-to-end command-line and persistence contract tests."""
import contextlib
import dataclasses
import hashlib
import importlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kdvnoise
from kdvnoise import __version__
from kdvnoise import cli
from kdvnoise.cli import main
from kdvnoise.config import _REQUIRED, _SCHEMAS, ConfigError, config_hash, load_config
from kdvnoise.estimates import SpaceTimeCoeffs, family_points, time_localization_check
from kdvnoise.invariance import generate
from kdvnoise.snapshots import SnapshotError, load_ensemble, peek_header, save_ensemble, \
    write_atomic


def write_ini(path, section, **kv):
    lines = [f"[{section}]"] + [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def read_err(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


def assert_one_error(capsys, code):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"]["code"] == code


def assert_one_config_error(capsys):
    assert_one_error(capsys, "config")


def write_input(tmp_path, N, count, seed):
    """An evolve input: the ensemble `kdvnoise sample` writes for N, count, seed."""
    path = tmp_path / f"in_{N}_{count}_{seed}.snap"
    save_ensemble(generate(N, count, seed=seed), path)
    return str(path)


NON_FINITE = [complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 1.0)]


class TestSnapshots:
    def test_round_trip_bit_exact(self, tmp_path):
        e = generate(8, 5, seed=3)
        p = tmp_path / "e.snap"
        save_ensemble(e, p)
        back = load_ensemble(p)
        assert back.N == 8 and back.count == 5 and back.time == 0.0
        assert np.array_equal(back.coeffs, e.coeffs)
        assert back.coeffs.dtype == np.complex128

    def test_rerun_byte_identical(self, tmp_path):
        e = generate(8, 5, seed=3)
        p1, p2 = tmp_path / "a.snap", tmp_path / "b.snap"
        save_ensemble(e, p1)
        save_ensemble(e, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_ensemble(self, tmp_path):
        e = generate(8, 0, seed=1)
        p = tmp_path / "e.snap"
        save_ensemble(e, p)
        assert load_ensemble(p).count == 0

    def test_header_fields(self, tmp_path):
        e = generate(4, 2, seed=9)
        p = tmp_path / "e.snap"
        save_ensemble(e, p)
        h = peek_header(p)
        assert h["format_version"] == 1
        assert h["N"] == 4 and h["count"] == 2
        assert "provenance" in h and "payload_sha256" in h

    def test_peek_reads_header_only(self, tmp_path, monkeypatch):
        p = tmp_path / "e.snap"
        save_ensemble(generate(16, 64, seed=2), p)
        p.write_bytes(p.read_bytes()[:-100])
        with pytest.raises(SnapshotError, match="truncated payload"):
            load_ensemble(p)
        blob_len = int.from_bytes(p.read_bytes()[8:12], "little")
        got = []

        class CountingReader(io.BufferedReader):
            def read(self, size=-1):
                data = super().read(size)
                got.append(len(data))
                return data

        monkeypatch.setattr(
            "kdvnoise.snapshots.open",
            lambda path, mode: CountingReader(io.FileIO(path, mode)),
            raising=False,
        )
        h = peek_header(p)
        assert h["N"] == 16 and h["count"] == 64
        assert sum(got) == 8 + 4 + blob_len

    def test_corrupted_payload_rejected(self, tmp_path):
        e = generate(8, 4, seed=5)
        p = tmp_path / "e.snap"
        save_ensemble(e, p)
        raw = bytearray(p.read_bytes())
        raw[-3] ^= 0xFF
        p.write_bytes(bytes(raw))
        with pytest.raises(SnapshotError, match="checksum"):
            load_ensemble(p)

    def test_truncated_rejected(self, tmp_path):
        e = generate(8, 4, seed=5)
        p = tmp_path / "e.snap"
        save_ensemble(e, p)
        p.write_bytes(p.read_bytes()[:-10])
        with pytest.raises(SnapshotError):
            load_ensemble(p)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "e.snap"
        p.write_bytes(b"not a snapshot at all")
        with pytest.raises(SnapshotError):
            load_ensemble(p)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_non_finite_payload_rejected(self, tmp_path, bad):
        coeffs = generate(4, 3, seed=1).coeffs.copy()
        coeffs[1, 2] = bad
        p = tmp_path / "e.snap"
        write_coeffs_snap(p, coeffs)
        with pytest.raises(SnapshotError, match="non-finite"):
            load_ensemble(p)

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_save_refuses_non_finite(self, tmp_path, bad):
        e = generate(4, 3, seed=1)
        coeffs = e.coeffs.copy()
        coeffs[2, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            save_ensemble(dataclasses.replace(e, coeffs=coeffs), tmp_path / "e.snap")
        assert list(tmp_path.iterdir()) == []

    def test_version_mismatch_rejected(self, tmp_path):
        e = generate(4, 1, seed=1)
        p = tmp_path / "e.snap"
        save_ensemble(e, p)
        raw = p.read_bytes()
        patched = raw.replace(b'"format_version": 1', b'"format_version": 9', 1)
        assert patched != raw
        p.write_bytes(patched)
        with pytest.raises(SnapshotError, match="version"):
            load_ensemble(p)


def write_snap(path, header, payload=b""):
    """A snapshot whose header JSON is given verbatim, magic taken from a real file."""
    save_ensemble(generate(2, 1, seed=1), path)
    blob = json.dumps(header).encode("utf-8")
    magic = path.read_bytes()[:8]
    path.write_bytes(magic + len(blob).to_bytes(4, "little") + blob + payload)


def write_coeffs_snap(path, coeffs):
    """A snapshot of coeffs with a valid header and checksum, bypassing save_ensemble."""
    payload = np.ascontiguousarray(coeffs, dtype="<c16").tobytes()
    count, N = coeffs.shape
    write_snap(path, {"format_version": 1, "N": N, "count": count, "time": 0.0,
                      "provenance": {}, "payload_sha256": hashlib.sha256(payload).hexdigest()},
               payload)


class TestAtomicWrites:
    def test_failed_write_keeps_old_file(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")
        with pytest.raises(RuntimeError):
            with write_atomic(path) as fh:
                fh.write("partial")
                fh.flush()
                raise RuntimeError("disk gone")
        assert path.read_text() == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]

    def test_failed_csv_keeps_old_file(self, tmp_path):
        path = tmp_path / "lemmas.csv"
        row = {"name": "a", "value": 1.5, "note": "b"}
        cli._write_csv(tmp_path, "lemmas.csv", "0" * 12, [row, row])
        old = path.read_bytes()

        def rows():
            yield row
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            cli._write_csv(tmp_path, "lemmas.csv", "0" * 12, rows())
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["lemmas.csv"]

    def test_failed_snapshot_keeps_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "e.snap"
        save_ensemble(generate(4, 3, seed=1), path)
        old = path.read_bytes()

        def boom(*args):
            raise OSError("no space left on device")

        # the magic is already written when the header length fails
        monkeypatch.setattr("kdvnoise.snapshots.struct.pack", boom)
        with pytest.raises(OSError):
            save_ensemble(generate(4, 3, seed=2), path)
        monkeypatch.undo()
        assert path.read_bytes() == old
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.snap"]

    def test_replaces_existing_file(self, tmp_path):
        path = tmp_path / "e.snap"
        save_ensemble(generate(4, 3, seed=1), path)
        save_ensemble(generate(4, 3, seed=2), path)
        assert np.array_equal(load_ensemble(path).coeffs, generate(4, 3, seed=2).coeffs)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["e.snap"]

    def test_missing_directory_created(self, tmp_path):
        path = tmp_path / "a" / "b" / "e.snap"
        save_ensemble(generate(4, 3, seed=1), path)
        assert np.array_equal(load_ensemble(path).coeffs, generate(4, 3, seed=1).coeffs)


class TestSnapshotHeaderSchema:
    VALID = {"format_version": 1, "N": 2, "count": 1, "time": 0.0,
             "provenance": {}, "payload_sha256": "0" * 64}

    @pytest.mark.parametrize("header", [
        {k: v for k, v in VALID.items() if k != "N"},
        [1, 2, 3],
        dict(VALID, N=-1),
        dict(VALID, count="1"),
        dict(VALID, N=True),
        {k: v for k, v in VALID.items() if k != "payload_sha256"},
        dict(VALID, time="0"),
        dict(VALID, time=float("nan")),
        dict(VALID, time=10**400),
        dict(VALID, provenance=5),
        dict(VALID, provenance=[1, 2]),
        dict(VALID, provenance="ab"),
        {k: v for k, v in VALID.items() if k != "provenance"},
        dict(VALID, format_version=True),
        dict(VALID, format_version=1.0),
    ], ids=["missing-N", "list", "negative-N", "string-count", "bool-N", "missing-checksum",
            "string-time", "nan-time", "huge-int-time", "int-provenance", "list-provenance",
            "string-provenance", "missing-provenance", "bool-version", "float-version"])
    def test_rejected_with_exit_3(self, tmp_path, capsys, header):
        bad = tmp_path / "bad.snap"
        write_snap(bad, header, payload=bytes(32))
        self.assert_exit_3(tmp_path, capsys, bad)

    # json.loads raises RecursionError and ValueError, not JSONDecodeError, for these
    @pytest.mark.parametrize("blob", [b"[" * 100_000, b'{"time": ' + b"1" * 5000 + b"}"],
                             ids=["deep-nesting", "long-int"])
    def test_undecodable_header_exit_3(self, tmp_path, capsys, blob):
        bad = tmp_path / "bad.snap"
        write_snap(bad, self.VALID)
        bad.write_bytes(bad.read_bytes()[:8] + len(blob).to_bytes(4, "little") + blob)
        self.assert_exit_3(tmp_path, capsys, bad)

    @staticmethod
    def assert_exit_3(tmp_path, capsys, bad):
        with pytest.raises(SnapshotError):
            load_ensemble(bad)
        with pytest.raises(SnapshotError):
            peek_header(bad)
        cfg = write_ini(tmp_path / "c.ini", "evolve", input=str(bad), dt=1e-3, T=0.01)
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
        assert_one_error(capsys, "io")
        assert not out.exists()


# any JSON value a header key could be replaced with, scalars as often as containers
JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
JSON_VALUES = JSON_SCALARS | st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
SNAPSHOT_DAMAGE = st.one_of(
    *(st.tuples(st.just("key"), st.just(key), JSON_VALUES)
      for key in sorted(TestSnapshotHeaderSchema.VALID)),
    st.tuples(st.just("truncate"), st.integers(min_value=0)),
    st.tuples(st.just("flip"), st.integers(min_value=0), st.integers(1, 255)),
)


class TestSnapshotFuzz:
    @settings(max_examples=80, deadline=None)
    @given(damage=SNAPSHOT_DAMAGE)
    def test_damaged_snapshot_exits_cleanly(self, tmp_path_factory, damage):
        base = tmp_path_factory.getbasetemp() / "snapshot_fuzz"
        base.mkdir(exist_ok=True)
        snap = base / "in.snap"
        save_ensemble(generate(2, 1, seed=1), snap)
        raw = snap.read_bytes()
        if damage[0] == "key":
            # one header value replaced; the checksum and length are not recomputed
            _, key, value = damage
            hlen = int.from_bytes(raw[8:12], "little")
            header = dict(json.loads(raw[12 : 12 + hlen]), **{key: value})
            blob = json.dumps(header, sort_keys=True).encode("utf-8")
            raw = raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen :]
        elif damage[0] == "truncate":
            raw = raw[: damage[1] % len(raw)]
        else:
            _, pos, mask = damage
            raw = bytearray(raw)
            raw[pos % len(raw)] ^= mask
        snap.write_bytes(bytes(raw))
        cfg = write_ini(base / "c.ini", "evolve", input=str(snap), dt=1e-3, T=1e-3)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main(["evolve", "--config", cfg, "--out", str(base / "o")])
        assert rc in (0, 3, 4)
        lines = err.getvalue().splitlines()
        if rc == 0:
            assert lines == []
        else:
            assert len(lines) == 1
            assert json.loads(lines[0])["error"]["code"] == {3: "io", 4: "runtime"}[rc]


class TestConfig:
    def test_defaults_applied(self, tmp_path):
        path = write_ini(tmp_path / "c.ini", "sample", N=8, count=2)
        cfg = load_config("sample", path)
        assert cfg["seed"] == 0

    def test_unknown_key_rejected(self, tmp_path):
        path = write_ini(tmp_path / "c.ini", "sample", N=8, count=2, bogus=1)
        with pytest.raises(ConfigError):
            load_config("sample", path)

    def test_bad_value_rejected(self, tmp_path, capsys):
        path = write_ini(tmp_path / "c.ini", "sample", N=-4, count=2)
        with pytest.raises(ConfigError):
            load_config("sample", path)
        # rejected before any work: a decay_m_max that is not a power of two, and
        # counts holding '%', an ordinary character since values are read raw
        for sub, keys in [("lemmas", dict(decay_m_max=100)), ("sample", dict(N=4, count="2%")),
                          ("sample", dict(N=4, count="%(N)s"))]:
            cfg = write_ini(tmp_path / "b.ini", sub, **keys)
            out = tmp_path / "o"
            assert main([sub, "--config", cfg, "--out", str(out)]) == 2
            assert_one_config_error(capsys)
            assert not out.exists()
        for n_list in ("", "8,1", "8,x"):
            path = write_ini(tmp_path / "e.ini", "estimates", s=-0.49, p=2.1, n_list=n_list)
            with pytest.raises(ConfigError):
                load_config("estimates", path)

    def test_list_keys_parsed(self, tmp_path):
        path = write_ini(tmp_path / "e.ini", "estimates", s=-0.49, p=2.1, n_list=" 16, 8,,")
        assert load_config("estimates", path)["n_list"] == (16, 8)
        path = write_ini(tmp_path / "v.ini", "evolve", input="x", dt=0.1, T=1, checkpoints="0.5")
        assert load_config("evolve", path)["checkpoints"] == (0.5,)

    def test_missing_section_exit_2(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", "lemma", seed=1)
        out = tmp_path / "o"
        assert main(["lemmas", "--config", cfg, "--out", str(out)]) == 2
        assert "[lemmas]" in read_err(capsys)["error"]["message"]
        assert not out.exists()
        # [DEFAULT] would be a second way to set every key
        path = tmp_path / "d.ini"
        path.write_text("[DEFAULT]\nseed = 3\n[lemmas]\n")
        with pytest.raises(ConfigError, match="DEFAULT"):
            load_config("lemmas", str(path))
        # no file at all means the defaults
        assert load_config("lemmas", None)["decay_m_max"] == 65536

    def test_environment_variable_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg = write_ini(tmp_path / "c.ini", "sample", N=4, count=1)
        out = tmp_path / "o"
        monkeypatch.setenv("KDVNOISE_SEED", "11")
        assert main(["sample", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"]["code"] == "config"
        assert "KDVNOISE_SEED" in err[0]
        assert not out.exists()

    # one valid section per subcommand; evolve's input is not opened by load_config
    VALID = {
        "sample": dict(N=4, count=2),
        "evolve": dict(input="in.snap", dt=1e-3, T=0.01),
        "invariance": dict(N=4, count=2, dt=1e-3, T=0.01),
        "tails": dict(N=8, samples=4, s=-0.49, p=2.1, k_min=1.0, k_max=2.0, k_step=0.25),
        "lemmas": dict(),
        "estimates": dict(s=-0.49, p=2.1),
    }

    @pytest.mark.parametrize("sub,key", [(sub, key) for sub in _SCHEMAS for key in _SCHEMAS[sub]])
    @settings(max_examples=40, deadline=None)
    @given(value=st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"))))
    def test_any_value_resolves_or_config_error(self, tmp_path_factory, sub, key, value):
        path = tmp_path_factory.getbasetemp() / f"fuzz_{sub}_{key}.ini"
        keys = dict(self.VALID[sub], **{key: value})
        path.write_text(
            f"[{sub}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()), encoding="utf-8"
        )
        try:
            load_config(sub, str(path))
        except ConfigError:
            pass

    def test_readme_table_lists_schema_keys(self):
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = {}
        for line in readme.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 4 and cells[0].strip("`") in _SCHEMAS:
                required, optional = (re.findall(r"`([^`]+)`", c) for c in cells[1:3])
                table[cells[0].strip("`")] = (required, optional)
        assert set(table) == set(_SCHEMAS)
        for sub, schema in _SCHEMAS.items():
            required = [k for k, (_t, dflt, _v) in schema.items() if dflt is _REQUIRED]
            optional = [k for k in schema if k not in required]
            assert table[sub] == (required, optional), sub

    def test_unused_estimates_key_rejected(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", "estimates", s=-0.49, p=2.1, bounded_factor=3.0)
        assert main(["estimates", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert read_err(capsys)["error"]["code"] == "config"

    def test_hash_stable_and_sensitive(self, tmp_path):
        p1 = write_ini(tmp_path / "a.ini", "sample", N=8, count=2, seed=1)
        c1 = load_config("sample", p1)
        c2 = load_config("sample", p1)
        assert config_hash(c1) == config_hash(c2)
        assert len(config_hash(c1)) == 12
        c3 = load_config("sample", write_ini(tmp_path / "b.ini", "sample", N=8, count=2, seed=4))
        assert config_hash(c1) != config_hash(c3)


class RecordingConfig(dict):
    """A resolved configuration that remembers which keys were read."""

    def __init__(self, cfg):
        super().__init__(cfg)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestEveryKeyRead:
    # a key no run reads changes no output, so it should not exist
    @pytest.mark.parametrize("sub,keys", [
        ("sample", dict(N=4, count=2)),
        ("evolve", dict(dt=1e-3, T=0.01, checkpoints="0.005")),
        ("invariance", dict(N=4, count=2, dt=1e-3, T=0.01)),
        ("tails", dict(N=8, samples=400, s=-0.49, p=2.1, k_min=1.0, k_max=2.0, k_step=0.25)),
        ("lemmas", dict(resonance_bound=10, psum_cutoff=100, decay_m_max=4, decay_seeds=2)),
        ("estimates", dict(s=-0.49, p=2.1, n_list="8", trials=1, time_loc="false")),
    ])
    def test_every_schema_key_read(self, tmp_path, sub, keys):
        if sub == "evolve":
            keys = dict(keys, input=write_input(tmp_path, 4, 2, 1))
        cfg = RecordingConfig(load_config(sub, write_ini(tmp_path / "c.ini", sub, **keys)))
        assert cli._COMMANDS[sub](cfg, "0" * 12, str(tmp_path)) == 0
        assert cfg.read == set(_SCHEMAS[sub])


class TestCmdSample:
    def test_basic_and_empty(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", "sample", N=8, count=3, seed=7)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o1")]) == 0
        e = load_ensemble(tmp_path / "o1" / "ensemble.snap")
        assert e.count == 3
        assert np.array_equal(e.coeffs, generate(8, 3, seed=7).coeffs)

        cfg0 = write_ini(tmp_path / "c0.ini", "sample", N=8, count=0, seed=7)
        assert main(["sample", "--config", cfg0, "--out", str(tmp_path / "o2")]) == 0
        assert load_ensemble(tmp_path / "o2" / "ensemble.snap").count == 0

    def test_rerun_identical_bytes(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", "sample", N=8, count=4, seed=3)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "r1")]) == 0
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "r2")]) == 0
        b1 = (tmp_path / "r1" / "ensemble.snap").read_bytes()
        b2 = (tmp_path / "r2" / "ensemble.snap").read_bytes()
        assert b1 == b2

    def test_bad_config_exit_2(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", "sample", N=8)  # count missing
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = read_err(capsys)
        assert err["error"]["code"] == "config"

    def test_missing_config_file_exit_2(self, tmp_path, capsys):
        rc = main(["sample", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)])
        assert rc == 2
        latin1 = tmp_path / "latin1.ini"  # the file is read as UTF-8
        latin1.write_bytes(b"# \xe9t\xe9\n[sample]\nN = 4\ncount = 1\n")
        assert main(["sample", "--config", str(latin1), "--out", str(tmp_path / "o")]) == 2

    # evolve has no seed (its ensemble comes from input=); the ids keep their
    # numbers from when it had one
    @pytest.mark.parametrize("sub,keys", [
        ("sample", dict(N=4, count=1)),
        ("invariance", dict(N=4, count=2, dt=1e-3, T=0.0)),
        ("tails", dict(N=4, samples=10, s=-0.49, p=2.1, k_min=1.0, k_max=2.0, k_step=0.5)),
        ("lemmas", dict(resonance_bound=10, psum_cutoff=100, decay_m_max=4, decay_seeds=2)),
        ("estimates", dict(s=-0.49, p=2.1, n_list="8", trials=1, time_loc="false")),
    ], ids=["sample-keys0", "invariance-keys2", "tails-keys3", "lemmas-keys4",
            "estimates-keys5"])
    def test_negative_seed_exit_2(self, tmp_path, capsys, sub, keys):
        cfg = write_ini(tmp_path / "c.ini", sub, seed=-1, **keys)
        assert main([sub, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert_one_config_error(capsys)

    def test_unwritable_out_exit_3(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", "sample", N=8, count=1, seed=1)
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        rc = main(["sample", "--config", cfg, "--out", str(blocker)])
        assert rc == 3
        assert read_err(capsys)["error"]["code"] == "io"


class TestCmdEvolve:
    def test_outputs_and_conservation(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path / "c.ini", "evolve", input=write_input(tmp_path, 8, 2, 5), dt=1e-3, T=0.05
        )
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        final = load_ensemble(out / "ensemble_final.snap")
        assert final.time == pytest.approx(0.05)
        text = (out / "conservation.csv").read_text()
        assert text.startswith("# tool=kdvnoise")
        assert "config_hash=" in text.splitlines()[0]

    def test_checkpoint_resume_matches_continuous(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path / "full.ini", "evolve",
            input=write_input(tmp_path, 8, 2, 5), dt=1e-3, T=0.1, checkpoints="0.05",
        )
        out = tmp_path / "full"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        continuous = load_ensemble(out / "ensemble_final.snap")
        mid = out / "checkpoint_0.05.snap"
        assert mid.exists()

        cfg2 = write_ini(
            tmp_path / "resume.ini", "evolve",
            input=str(mid), dt=1e-3, T=0.05,
        )
        out2 = tmp_path / "resume"
        assert main(["evolve", "--config", cfg2, "--out", str(out2)]) == 0
        resumed = load_ensemble(out2 / "ensemble_final.snap")
        assert resumed.time == pytest.approx(0.1)
        assert np.max(np.abs(resumed.coeffs - continuous.coeffs)) < 1e-12

    def test_blowup_exit_4(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path / "c.ini", "evolve", input=write_input(tmp_path, 64, 1, 6), dt=1e-3, T=1.0
        )
        rc = main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 4
        err = read_err(capsys)
        assert err["error"]["code"] == "runtime"

    def test_checkpointed_final_matches_plain(self, tmp_path, capsys):
        finals = []
        for name, cps in (("plain", ""), ("cp", "0.1,0.2")):
            cfg = write_ini(
                tmp_path / f"{name}.ini", "evolve",
                input=write_input(tmp_path, 8, 3, 5), dt=0.01, T=0.3, checkpoints=cps,
            )
            assert main(["evolve", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            finals.append((tmp_path / name / "ensemble_final.snap").read_bytes())
        assert finals[0] == finals[1]
        for c in (0.1, 0.2):
            h = peek_header(tmp_path / "cp" / f"checkpoint_{c:g}.snap")
            assert h["time"] == c and h["provenance"]["flow"]["T"] == c

    def test_blowup_reports_run_time(self, tmp_path, capsys):
        messages = []
        for name, cps in (("plain", ""), ("cp", "0.04")):
            cfg = write_ini(
                tmp_path / f"{name}.ini", "evolve",
                input=write_input(tmp_path, 64, 1, 20260821), dt=1e-3, T=0.1,
                checkpoints=cps,
            )
            assert main(["evolve", "--config", cfg, "--out", str(tmp_path / name)]) == 4
            messages.append(read_err(capsys)["error"]["message"])
        assert "t~0.052;" in messages[0]
        assert messages[0] == messages[1]

    def test_checkpoint_name_collision_exit_2(self, tmp_path, capsys):
        # both names print as checkpoint_0.123456.snap; an empty input keeps
        # the 1.2 million steps free should the check ever go missing
        empty = tmp_path / "empty.snap"
        save_ensemble(generate(4, 0, seed=1), empty)
        cfg = write_ini(
            tmp_path / "c.ini", "evolve",
            input=str(empty), dt=1e-7, T=0.1234563, checkpoints="0.1234561,0.1234562",
        )
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
        assert read_err(capsys)["error"]["code"] == "config"
        assert not out.exists()

    def test_empty_input_exit_2(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", "evolve", input="", dt=1e-3, T=0.01)
        assert main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert read_err(capsys)["error"]["code"] == "config"

    @pytest.mark.parametrize("T", [0.0, 0.01])
    def test_non_finite_input_exit_3(self, tmp_path, capsys, T):
        coeffs = generate(4, 3, seed=1).coeffs.copy()
        coeffs[1, 2] = NON_FINITE[0]
        snap = tmp_path / "in.snap"
        write_coeffs_snap(snap, coeffs)
        cfg = write_ini(tmp_path / "c.ini", "evolve", input=str(snap), dt=1e-3, T=T)
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == {
            "code": "io", "message": "payload holds non-finite coefficients"}
        assert not out.exists()

    def test_corrupt_input_exit_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.snap"
        bad.write_bytes(b"garbage")
        cfg = write_ini(tmp_path / "c.ini", "evolve", input=str(bad), dt=1e-3, T=0.01)
        rc = main(["evolve", "--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == 3

    @pytest.mark.parametrize("keys", [
        {"N": 8}, {"count": 2}, {"N": 8, "count": 2}, {"seed": 7}, {"workers": 2},
    ])
    def test_input_with_n_or_count_exit_2(self, tmp_path, capsys, keys):
        snap = tmp_path / "in.snap"
        save_ensemble(generate(4, 2, seed=1), snap)
        cfg = write_ini(tmp_path / "c.ini", "evolve", input=str(snap), dt=1e-3, T=0.01, **keys)
        out = tmp_path / "o"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"]["code"] == "config"
        assert not (out / "ensemble_final.snap").exists()


class TestCmdInvariance:
    def test_t0_all_d_zero(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path / "c.ini", "invariance",
            N=8, count=50, seed=2, dt=1e-3, T=0.0, alpha=0.01,
        )
        out = tmp_path / "o"
        assert main(["invariance", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["overall_pass"] is True
        assert all(row["D"] == 0.0 for row in rep["observables"])
        assert rep["tool"].startswith("kdvnoise")
        assert "config_hash" in rep
        csv_text = (out / "observables.csv").read_text()
        assert csv_text.startswith("# tool=kdvnoise")

    def test_small_dynamic_run(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path / "c.ini", "invariance",
            N=8, count=200, seed=3, dt=1e-3, T=0.05, alpha=0.01,
        )
        out = tmp_path / "o"
        assert main(["invariance", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["overall_pass"] is True

    def test_one_member_exit_2(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path / "c.ini", "invariance",
            N=4, count=1, seed=1, dt=1e-3, T=0.01, alpha=0.01,
        )
        out = tmp_path / "o"
        assert main(["invariance", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"]["code"] == "config"
        assert not (out / "report.json").exists()

    def test_two_members_strict_json(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path / "c.ini", "invariance",
            N=4, count=2, seed=1, dt=1e-3, T=0.01, alpha=0.01,
        )
        out = tmp_path / "o"
        assert main(["invariance", "--config", cfg, "--out", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        rep = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert len(rep["observables"]) == 5


class TestCmdTails:
    def test_csv_and_fit(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path / "c.ini", "tails",
            N=16, samples=4000, seed=4, s=-0.49, p=2.1, q="inf",
            k_min=1.6, k_max=3.0, k_step=0.2,
        )
        out = tmp_path / "o"
        assert main(["tails", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "tails.csv").read_text().splitlines()
        assert lines[0].startswith("# tool=kdvnoise")
        assert lines[1] == "K,count,samples,estimate,stderr,wilson_low,wilson_high,censored"
        fit = json.loads((out / "tail_fit.json").read_text())
        assert fit["slope"] < 0

    def test_empty_k_range_exit_2(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path / "c.ini", "tails",
            N=8, samples=10, seed=4, s=-0.49, p=2.1, k_min=3.0, k_max=2.0, k_step=0.2,
        )
        assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"]["code"] == "config"

    @pytest.mark.parametrize("q", ["abc", "0.5", "nan"])
    def test_bad_q_exit_2(self, tmp_path, capsys, q):
        cfg = write_ini(
            tmp_path / "c.ini", "tails",
            N=8, samples=10, seed=4, s=-0.49, p=2.1, q=q, k_min=1.0, k_max=2.0, k_step=0.2,
        )
        assert main(["tails", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"]["code"] == "config"


class TestCmdLemmas:
    def test_runs_all_oracles(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path / "c.ini", "lemmas",
            resonance_bound=100, psum_cutoff=10000, seed=1,
            decay_m_max=256, decay_seeds=20,
        )
        out = tmp_path / "o"
        assert main(["lemmas", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "lemmas.csv").read_text()
        assert text.splitlines()[0].startswith("# tool=kdvnoise")
        for name in ("resonance_exhaustive", "bracket_product", "quadratic_sum", "resonance_set", "decay_ratio"):
            assert name in text


class TestCmdEstimates:
    def test_sweep_csv(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path / "c.ini", "estimates",
            s=-0.49, p=2.1, n_list="8", trials=2, seed=5, time_loc="false",
        )
        out = tmp_path / "o"
        assert main(["estimates", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "estimates.csv").read_text().splitlines()
        assert lines[0].startswith("# tool=kdvnoise")
        assert lines[1] == "N,trial,family,ratio,config_hash"
        assert len(lines) == 4

    def test_time_localization_at_smallest_n(self, tmp_path, capsys):
        cfg = write_ini(
            tmp_path / "c.ini", "estimates", s=-0.49, p=2.1, n_list="8,2", trials=1, seed=5,
        )
        out = tmp_path / "o"
        assert main(["estimates", "--config", cfg, "--out", str(out)]) == 0
        rows = (out / "time_localization.csv").read_text().splitlines()[2:]
        f = SpaceTimeCoeffs.from_points(2, family_points("free_curve", 2, 2.1, None)[0])
        want = [f"{time_localization_check(f, 2.0**-k, -0.49, 2.1):.10g}" for k in range(7)]
        assert [row.split(",")[1] for row in rows] == want

    def test_time_localization_too_large_exit_2(self, tmp_path, capsys):
        # refused before the sweep's 200 trials at N=32 and its 0.5 GB table
        cfg = write_ini(tmp_path / "c.ini", "estimates", s=-0.49, p=2.1, n_list="32")
        out = tmp_path / "o"
        assert main(["estimates", "--config", cfg, "--out", str(out)]) == 2
        assert_one_config_error(capsys)
        assert not (out / "estimates.csv").exists()


class TestReadme:
    def test_layout_table_lists_each_all(self):
        # one row per module, naming exactly what the module exports
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        table = {}
        for line in readme.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            module = re.fullmatch(r"`kdvnoise\.(\w+)`", cells[0])
            if len(cells) == 2 and module:
                table[module.group(1)] = sorted(re.findall(r"`([^`]+)`", cells[1]))
        package = pathlib.Path(kdvnoise.__file__).parent
        assert set(table) == {p.stem for p in package.glob("*.py")} - {"__init__"}
        for name, names in table.items():
            assert names == sorted(importlib.import_module(f"kdvnoise.{name}").__all__), name

    def test_csv_schemas_match_tables(self):
        # each "CSV schemas" bullet names the columns, in order, that cli._TABLES writes
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        bullets = dict(re.findall(r"^\* `(\w+\.csv)`: `([^`]+)`", readme, flags=re.M))
        assert bullets == {
            name: ",".join(c.partition(":")[0] for c in spec.split(","))
            for name, spec in cli._TABLES.items()
        }


class TestCliGeneral:
    def test_import_loads_no_scipy(self):
        # scipy is imported inside the two oracles that use it, not on import
        src = os.path.dirname(os.path.dirname(kdvnoise.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = (
            "import sys, kdvnoise.cli; "
            "print([m for m in ('scipy.fft', 'scipy.integrate', 'scipy.signal') if m in sys.modules])"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_unknown_subcommand(self, tmp_path, capsys):
        assert main(["frobnicate"]) == 2
        assert_one_config_error(capsys)

    def test_no_args(self, capsys):
        assert main([]) == 2
        assert_one_config_error(capsys)

    @pytest.mark.parametrize("extra", [
        ["--seed", "x"], ["--workers", "2"], ["--bogus"], ["--seed", "5"],
    ], ids=["bad-seed", "workers", "unknown-flag", "seed-flag"])
    def test_malformed_flags_exit_2(self, tmp_path, capsys, extra):
        cfg = write_ini(tmp_path / "c.ini", "invariance", N=4, count=2, dt=1e-3, T=0.0)
        out = tmp_path / "o"
        assert main(["invariance", "--config", cfg, "--out", str(out)] + extra) == 2
        assert_one_config_error(capsys)
        assert not out.exists()

    def test_missing_out_exit_2(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", "sample", N=4, count=1)
        assert main(["sample", "--config", cfg]) == 2
        assert_one_config_error(capsys)

    def test_help_exit_0(self, capsys):
        assert main(["sample", "-h"]) == 0
        assert "--out" in capsys.readouterr().out

    def test_verbose_flag_accepted(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", "sample", N=4, count=1, seed=1)
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o"), "--verbose"]) == 0

    @pytest.mark.parametrize("sub,keys,code", [
        ("estimates", dict(s=-0.49, p=2.1, n_list="32"), 2),
        ("evolve", dict(dt=1e-3, T=0.01, checkpoints="0.5"), 2),
        ("tails", dict(N=8, samples=10, s=-0.49, p=2.1, k_min=3.0, k_max=2.0, k_step=0.2), 2),
        ("evolve", dict(input="missing", dt=1e-3, T=0.01), 3),
        ("invariance", dict(N=2, count=4, dt=1e-3, T=0.01), 2),
        ("evolve", dict(dt=1e-3, T=0.0105), 2),
        ("invariance", dict(N=4, count=4, dt=1e-3, T=0.0105), 2),
        ("evolve", dict(dt=1e-3, T=0.01, checkpoints="0.0055"), 2),
    ], ids=["estimates-n-list", "evolve-checkpoint", "tails-k-range", "evolve-missing-input",
            "invariance-N-below-3", "evolve-T-off-grid", "invariance-T-off-grid",
            "evolve-checkpoint-off-grid"])
    def test_error_leaves_no_out_directory(self, tmp_path, capsys, sub, keys, code):
        if keys.get("input") == "missing":
            keys = dict(keys, input=str(tmp_path / "missing.snap"))
        elif sub == "evolve":
            keys = dict(keys, input=write_input(tmp_path, 4, 2, 1))
        cfg = write_ini(tmp_path / "c.ini", sub, **keys)
        out = tmp_path / "o"
        assert main([sub, "--config", cfg, "--out", str(out)]) == code
        assert_one_error(capsys, {2: "config", 3: "io"}[code])
        assert not out.exists()

    @pytest.mark.parametrize("sub,keys,stamped", [
        ("sample", dict(N=4, count=2), 0),
        ("evolve", dict(dt=1e-3, T=0.01, checkpoints="0.005"), 1),
        ("invariance", dict(N=4, count=2, dt=1e-3, T=0.01), 2),
        ("tails", dict(N=8, samples=400, s=-0.49, p=2.1, k_min=1.0, k_max=2.0, k_step=0.25), 2),
        ("lemmas", dict(resonance_bound=10, psum_cutoff=100, decay_m_max=4, decay_seeds=2), 1),
        ("estimates", dict(s=-0.49, p=2.1, n_list="2", trials=1), 2),
    ])
    def test_every_output_carries_the_verbose_stamp(self, tmp_path, capsys, sub, keys, stamped):
        if sub == "evolve":
            keys = dict(keys, input=write_input(tmp_path, 4, 2, 1))
        cfg = write_ini(tmp_path / "c.ini", sub, **keys)
        out = tmp_path / "o"
        assert main([sub, "--config", cfg, "--out", str(out), "--verbose"]) == 0
        m = re.fullmatch(rf"kdvnoise (\S+) {sub} config_hash=([0-9a-f]{{12}})",
                         capsys.readouterr().out.strip())
        version, h = m.groups()
        assert version == __version__
        checked = 0
        for path in out.iterdir():
            if path.suffix == ".csv":
                stamp = path.read_text().splitlines()[0]
                assert stamp == f"# tool=kdvnoise {version} config_hash={h}"
                checked += 1
            elif path.suffix == ".json":
                obj = json.loads(path.read_text())
                assert (obj["tool"], obj["config_hash"]) == (f"kdvnoise {version}", h)
                checked += 1
            else:
                assert path.suffix == ".snap"
        assert checked == stamped

    def test_new_nested_out_directory(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", "evolve", input=write_input(tmp_path, 4, 2, 1),
                        dt=1e-3, T=0.01, checkpoints="0.005")
        out = tmp_path / "a" / "b"
        assert main(["evolve", "--config", cfg, "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "checkpoint_0.005.snap", "conservation.csv", "ensemble_final.snap"]

    def test_version_string(self):
        assert isinstance(__version__, str) and __version__.count(".") == 2
