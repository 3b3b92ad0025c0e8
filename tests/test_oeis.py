"""B-file parsing, the three-stage lookup, and positional comparison."""

import io
import pathlib
import subprocess
import sys
import urllib.error

import pytest

import ec_riordan
from ec_riordan import Curve, derive_gamma, hankel_transform
from ec_riordan.cli import main
from ec_riordan.oeis import (
    BFile,
    OEISFormatError,
    OEISLookupError,
    OEISNetworkError,
    compare_sequence,
    default_cache_dir,
    load_bfile,
    normalize_anum,
    parse_bfile,
)


class TestNormalize:
    def test_forms(self):
        assert normalize_anum("A025243") == "A025243"
        assert normalize_anum("a108") == "A000108"
        assert normalize_anum("108") == "A000108"
        assert normalize_anum(" A000045 ") == "A000045"

    def test_rejects_junk(self):
        for bad in ("", "A", "B000108", "A12345678", "10 8"):
            with pytest.raises(ValueError):
                normalize_anum(bad)


class TestParse:
    def test_comments_and_blanks(self):
        text = "# header\n\n0 1\n1 1  # trailing note\n2 2\n"
        bf = parse_bfile("A000108", text)
        assert bf.start == 0
        assert bf.values == (1, 1, 2)

    def test_nonzero_start(self):
        bf = parse_bfile("A000000", "3 7\n4 9\n")
        assert bf.start == 3 and bf.values == (7, 9)

    def test_gap_rejected(self):
        with pytest.raises(OEISFormatError):
            parse_bfile("A000000", "0 1\n2 2\n")

    def test_junk_rejected(self):
        with pytest.raises(OEISFormatError):
            parse_bfile("A000000", "0 1 extra\n")
        with pytest.raises(OEISFormatError):
            parse_bfile("A000000", "zero one\n")

    def test_empty_rejected(self):
        with pytest.raises(OEISFormatError):
            parse_bfile("A000000", "# nothing\n")


class TestFixtures:
    def test_all_bundled_files_load(self):
        for anum, head in [
            ("A000108", (1, 1, 2, 5, 14)),
            ("A010892", (1, 1, 0, -1, -1, 0)),
            ("A023431", (1, 1, 1, 2, 4, 7, 13)),
            ("A025243", (1, 1, 3, 6, 14, 33, 79)),
        ]:
            bf = load_bfile(anum, offline=True)
            assert bf.source == "fixture"
            assert bf.values[: len(head)] == head

    def test_offline_miss(self):
        with pytest.raises(OEISLookupError):
            load_bfile("A000045", offline=True)


class TestCompare:
    def test_exact_match(self):
        bf = BFile("A000000", 0, (1, 2, 3, 4, 5, 6), "text")
        res = compare_sequence([1, 2, 3, 4, 5, 6], bf)
        assert res.matched and res.offset == 0 and res.compared == 6

    def test_positive_offset(self):
        # our sequence starts one position into theirs
        bf = BFile("A000000", 0, (9, 1, 2, 3, 4, 5), "text")
        res = compare_sequence([1, 2, 3, 4, 5], bf)
        assert res.matched and res.offset == 1

    def test_negative_offset(self):
        # our sequence carries two extra leading terms
        bf = BFile("A000000", 0, (3, 4, 5, 6, 7), "text")
        res = compare_sequence([1, 2, 3, 4, 5, 6, 7], bf)
        assert res.matched and res.offset == -2

    def test_mismatch_reporting(self):
        bf = BFile("A000000", 0, (1, 2, 3, 4, 99, 6), "text")
        res = compare_sequence([1, 2, 3, 4, 5, 6], bf)
        assert not res.matched
        assert res.first_mismatch == (4, "5", "99")

    def test_too_short(self):
        bf = BFile("A000000", 0, (1, 2), "text")
        res = compare_sequence([1, 2], bf)
        assert not res.matched and res.compared == 0

    def test_hankel_alignment_case(self):
        # the Hankel transform of the reduced series on (-1, 0, -1) is the
        # period-six sequence shifted by one position
        gam = derive_gamma(Curve(-1, 0, -1), 21)
        h = hankel_transform(gam.coefficients(), 11)
        res = compare_sequence(h, load_bfile("A010892", offline=True))
        assert res.matched and res.offset == 1


class TestCacheAndNetwork:
    def test_cache_dir_from_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("EC_RIORDAN_CACHE", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"

    def test_cache_hit_without_network(self, tmp_path):
        cache = tmp_path / "cache"
        cache.mkdir()
        (cache / "A000045.txt").write_text("0 0\n1 1\n2 1\n3 2\n4 3\n5 5\n")
        bf = load_bfile("A000045", cache_dir=cache)
        assert bf.source == "cache"
        assert bf.values == (0, 1, 1, 2, 3, 5)

    def test_network_failure(self, monkeypatch, tmp_path):
        def refuse(url, timeout):
            raise urllib.error.URLError("refused")

        monkeypatch.setattr("urllib.request.urlopen", refuse)
        with pytest.raises(OEISNetworkError):
            load_bfile("A000045", cache_dir=tmp_path)

    def test_network_success_populates_cache(self, monkeypatch, tmp_path):
        payload = b"0 1\n1 1\n2 2\n3 3\n4 5\n"

        class FakeResponse(io.BytesIO):
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.close()

        def serve(url, timeout):
            assert "b000041.txt" in url
            return FakeResponse(payload)

        monkeypatch.setattr("urllib.request.urlopen", serve)
        bf = load_bfile("A000041", cache_dir=tmp_path)
        assert bf.source == "network"
        assert bf.values == (1, 1, 2, 3, 5)
        assert (tmp_path / "A000041.txt").read_bytes() == payload
        # and a second load comes from the cache, no network involved
        monkeypatch.setattr(
            "urllib.request.urlopen",
            lambda url, timeout: (_ for _ in ()).throw(AssertionError("network hit")),
        )
        again = load_bfile("A000041", cache_dir=tmp_path)
        assert again.source == "cache"
        assert again.values == bf.values

    def test_failed_cache_write_leaves_no_bfile(self, monkeypatch, tmp_path):
        payload = b"0 1\n1 1\n2 2\n3 3\n4 5\n"
        fetches = []

        def serve(url, timeout):
            fetches.append(url)
            return io.BytesIO(payload)

        def torn_write(self, data, encoding=None, errors=None, newline=None):
            with open(self, "w", encoding=encoding) as fh:
                fh.write(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr("urllib.request.urlopen", serve)
        monkeypatch.setattr(pathlib.Path, "write_text", torn_write)
        assert load_bfile("A000041", cache_dir=tmp_path).source == "network"
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []

        monkeypatch.setattr("urllib.request.urlopen", serve)
        again = load_bfile("A000041", cache_dir=tmp_path)
        assert again.source == "network"
        assert again.values == (1, 1, 2, 3, 5)
        assert len(fetches) == 2
        assert [f.name for f in tmp_path.iterdir()] == ["A000041.txt"]

    def test_non_utf8_bfile_is_a_format_error(self, monkeypatch, tmp_path):
        monkeypatch.setenv("EC_RIORDAN_CACHE", str(tmp_path))
        monkeypatch.setattr(
            "urllib.request.urlopen", lambda url, timeout: io.BytesIO(b"1 1\n2 \xff\n")
        )
        with pytest.raises(OEISFormatError):
            load_bfile("A999999", cache_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []
        # the CLI reports it as a lookup failure, exit code 3
        assert main(["oeis", "-1", "-2", "-1", "A999999"]) == 3

    def test_non_utf8_cache_file_is_a_format_error(self, tmp_path):
        (tmp_path / "A999999.txt").write_bytes(b"0 1\n1 \xfe\n")
        with pytest.raises(OEISFormatError):
            load_bfile("A999999", cache_dir=tmp_path)


@pytest.mark.parametrize("module", ["urllib.request", "dataclasses", "inspect", "json", "csv"])
def test_cli_import_leaves_module_unloaded(module):
    # urllib.request loads only when load_bfile fetches, json and csv only
    # for those output formats, dataclasses and inspect never; -S keeps out
    # what an interpreter's site hooks load before any user code runs
    src = str(pathlib.Path(ec_riordan.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import ec_riordan.cli; "
        f"ec_riordan.cli.build_parser(); sys.exit({module!r} in sys.modules)"
    )
    assert subprocess.run([sys.executable, "-I", "-S", "-c", code]).returncode == 0
