"""Golden digests of full reports: refactors must keep reports byte-identical.

Each case runs ``table``, then ``verify --suite all`` (or the arguments a
long case lists), exactly as a user would; ``verify`` computes both tables
itself and reads nothing ``table`` wrote.  The digest is the sha256 of the canonical JSON of the report
without its ``timings`` block, which is the part of a report the
determinism contract covers.
"""

import hashlib
import json

import pytest

from csmverify import cli
from csmverify.cache import TableCache, canonical_json_bytes, payload_checksum

GOLDEN = {
    ("A", 2): ("b9bbe3563e10b4b377c799abf683c4592896716ec4f39668aa912391d14931ca",
               "c35ebd5eb14e5ec431d45b31e7f2e1e9eda854b2343aa0760db359c0b1260469",
               "193fb77620c27b403a458f9a0f953c8e4433112d0785b339bb13a437487e01f8"),
    ("A", 3): ("2d83c658a64cdc73a6ad0248061fe6c5b854522616c5ca7c3118c5fddcdbc740",
               "0312a596544e65537fc2c1c684e7dcfc82a50957339c393f69f4c9d6516e8d87",
               "6b8860bb0aba3e351a8c628b8fa0f3199d3d00bdd3bc54d47888eef735b3d281"),
    ("B", 2): ("32659de7214f92b508edc54d3d10019f141241e3abfeb32ef82730bbd8ac04c7",
               "d8ab748ada18fb85c0cb2aeefbeee8e1c85f5f98e32530be11ccb74a49d45524",
               "052bb01337ed33a4e40fcd0f597d81df2e55a919350902dc3856c5c23ad3a8fe"),
    ("C", 2): ("d0c6e81e024a3f28382ac76da13bda321ceb25965a8fda419a29dab39add953e",
               "d115625aa3f0e37baf92a06fa74cb0f74c283b3b0ebd5dcbb75901e635932776",
               "ebace55a614cc6416ba3e8cab7184f618e99b525f407753426782a360c75ae6c"),
    ("G", 2): ("4fae9e2d93ff2514c5d7f30b74828730dbb25e8b04b2078257788b3ad3ce6a2f",
               "5a6a541d417178352d8b5c8f6d696c8143b44698417c7c24bd91e068bb28c973",
               "2d4386b3fa9dc397c02771b636a903f963699e7b7f331d3db13b4729d074b7ef"),
}


#: reports on groups above order 48: on A4, where chi cross-validation used
#: to be sampled, the exhaustive case runs both triple suites, 2 x 1.73 M
#: triples, through one sweep, and the length <= 2 case checks box
#: associativity on 14 filtered elements, reading box rows of 3,164 pairs
#: outside the filter; on B4 the three pair suites record all 147,456 pairs
#: and compute 73,920 of them, one of each partner pair (u, v) ~
#: (w0*v, w0*u); the exhaustive pair suites on A4 and D4 compute one pair
#: of each orbit under the partner map and the diagram automorphisms
#: (3,676 of 14,400 and, under S3, 3,738 of 36,864), and their digests
#: were recorded while every pair was computed; the exhaustive A5 pair
#: suites, under --jobs 2, record all 518,400 pairs and read every row of
#: the A5 structure table: (group and label, verify arguments, report
#: digest, csm checksum, structure checksum)
_A4_TABLES = ("ee96cf01017a141af1e780e5af3edd1210db030d7a00daf35400e780ac69ed40",
              "10a7932bbbb30d8393063fbc6d575b0bd6ccb537e6fabe6d433c638eff354ec1")
_B4_TABLES = ("c51933aaef9637166d6c815cbc3d679993ec1f466e6eee493ce505b838d74ed1",
              "414c02eb410d5eb90ed302b147f0e2a50417f3950500619c5700a878448af36b")
_D4_TABLES = ("7dca0a77c14726f916d223b8213d6f70818e0c5eff16ec4be6c12eee2618e8ba",
              "dff881b48f85a90417f637d1d714cb680c240db707a05e69b5e60e05e8879f23")
_A5_TABLES = ("f63511ff6d35d6d8305982ad128721710ccf946e59b6ffa6b1596e419f5fb33a",
              "51cf6727481531e9fd72487e95ccab8c9ab43409ad96128a50a5feade5f85db7")
_PAIR_SUITES = ["--suite", "theorem-invariants", "--suite", "conjB", "--suite", "conjC"]
LONG_GOLDEN = {
    ("A", 4, "length <= 1"): (
        ["--suite", "conjD", "--suite", "cross-paths", "--max-length", "1"],
        "12c3bca0d9dd59655f52a2594b7e240f975f88ee77922454d3dfff45cef96e37", *_A4_TABLES),
    ("A", 4, "length <= 2"): (
        ["--suite", "conjD", "--max-length", "2"],
        "2ed159eafa5718d97f1c0f69cd019e70dca429e1c5634116d228b59b1dfaedeb", *_A4_TABLES),
    ("A", 4, "exhaustive"): (
        ["--suite", "conjD", "--suite", "cross-paths"],
        "128237e7c728626c553446f19516974a8d6e2b9b72bd171d3904160d642fa418", *_A4_TABLES),
    ("B", 4, "exhaustive"): (
        ["--suite", "theorem-invariants", "--suite", "conjB", "--suite", "conjC"],
        "705031a7e103c76154584dc4e53c9c12cad368e1d904350df66d360ed973b241", *_B4_TABLES),
    ("A", 4, "pair suites"): (
        _PAIR_SUITES,
        "2b119858656950330a969581b13276d17ad2c3e07c6f2298df9c749f1542bb83", *_A4_TABLES),
    ("D", 4, "pair suites"): (
        _PAIR_SUITES,
        "833bcd816c47eae21c0f8f94e7c89b7af3e000f6b1d6cfa9bc718d42aef90e7d", *_D4_TABLES),
    ("A", 5, "exhaustive"): (
        [*_PAIR_SUITES, "--jobs", "2"],
        "9d55e630aa0deb349f86d45f0d3b0f2ba7d76b9ec8774bf4167667520e06c1ca", *_A5_TABLES),
}


#: table checksums and the CSM export alone, on F4, whose verify sweeps are
#: too long for a gate, and on A5, whose pair suites are one above: (csm
#: checksum, structure checksum), recorded from the localization build the
#: BGG recursion replaced
LONG_TABLES = {
    ("A", 5): _A5_TABLES,
    ("F", 4): ("9ad6e576da0bff307235ae503f03478a0e3a41c3e02da69e2f4fd8c402ff1dda",
               "441c30677d43a78cf78f2519c7e79b6eace14eb373857b5415c46361e54f898d"),
}


def _printed_checksums(capsys) -> dict:
    return {line.split()[0]: line.rsplit("checksum ", 1)[1]
            for line in capsys.readouterr().out.splitlines() if "checksum" in line}


def _check_digests(series, rank, verify_args, digests, tmp_path, capsys):
    report_digest, csm_sum, structure_sum = digests
    group_args = ["--type", series, "--rank", str(rank), "--cache-dir", str(tmp_path / "cache")]

    assert cli.main(["table", *group_args]) == 0
    assert _printed_checksums(capsys) == {"csm": csm_sum, "structure": structure_sum}

    out = tmp_path / "report.json"
    assert cli.main(["verify", *group_args, *verify_args, "--output", str(out)]) == 0
    report = json.loads(out.read_text())
    report.pop("timings")
    assert report["options"]["table_checksums"] == {"csm": csm_sum, "structure": structure_sum}
    assert hashlib.sha256(canonical_json_bytes(report)).hexdigest() == report_digest


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_and_table_digests(key, tmp_path, capsys):
    _check_digests(*key, ["--suite", "all"], GOLDEN[key], tmp_path, capsys)


@pytest.mark.long
@pytest.mark.parametrize("key", list(LONG_GOLDEN))
def test_long_report_and_table_digests(key, tmp_path, capsys):
    series, rank, _ = key
    verify_args, *digests = LONG_GOLDEN[key]
    _check_digests(series, rank, verify_args, digests, tmp_path, capsys)


@pytest.mark.long
@pytest.mark.parametrize("key", list(LONG_TABLES), ids=lambda key: f"{key[0]}{key[1]}")
def test_long_table_checksums(key, tmp_path, capsys):
    series, rank = key
    csm_sum, structure_sum = LONG_TABLES[key]
    assert cli.main(["table", "--type", series, "--rank", str(rank),
                     "--cache-dir", str(tmp_path)]) == 0
    assert _printed_checksums(capsys) == {"csm": csm_sum, "structure": structure_sum}
    # the export is one plain-JSON file at any size; F4's is 14.1 MiB
    assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()] \
        == [f"{series}{rank}/csm-v1.json"]
    assert payload_checksum(TableCache(tmp_path).load(series, rank, "csm")) == csm_sum
