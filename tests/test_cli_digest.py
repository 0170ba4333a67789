"""The command line's artifacts, byte for byte against the committed manifest."""

import pytest

import cli_digest


def _blocks(lines: list) -> dict:
    """Digest lines grouped per case, keyed by the case's header line."""
    blocks: dict = {}
    for line in lines:
        if line.startswith("case "):
            key = line
            blocks[key] = []
        else:
            blocks[key].append(line)
    return blocks


def test_cli_artifacts_match_the_recorded_manifest():
    header, recorded = cli_digest.read_manifest()
    here = cli_digest.recorded_on()
    if header != here:
        pytest.skip(
            "manifest recorded on " + "; ".join(h[2:] for h in header)
            + ", not on " + "; ".join(h[2:] for h in here)
        )
    want, got = _blocks(recorded), _blocks(cli_digest.digest())
    assert list(got) == list(want)
    changed = [case for case in want if got[case] != want[case]]
    assert not changed, f"artifacts changed in {changed}; re-record with `--record` if on purpose"
