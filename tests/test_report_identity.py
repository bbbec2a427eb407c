"""Report identity: the analysis's output on report_identity.py's program
set matches the committed digest, part by part."""

import report_identity


def _parts(lines):
    """(program, mode) -> {part: hash} from digest lines."""
    out = {}
    for line in lines:
        program, mode, *hashes = line.split()
        out[program, mode] = dict(h.split("=", 1) for h in hashes)
    return out


def test_outputs_match_committed_digest():
    with open(report_identity.DIGEST, encoding="utf-8") as handle:
        expected = _parts(handle.read().splitlines())
    got = _parts(report_identity.digest_line(*outcome)
                 for outcome in report_identity.outcomes())
    differ = []
    for key in sorted(expected.keys() | got.keys()):
        if key not in got or key not in expected:
            differ.append("%s %s: %s" % (*key, "missing" if key not in got
                                         else "not in the digest"))
            continue
        differ += ["%s %s %s" % (*key, part)
                   for part in report_identity.PARTS
                   if got[key][part] != expected[key][part]]
    assert not differ, "differs from %s (regenerate it with " \
        "`python3 tests/report_identity.py --digest` if meant):\n%s" % (
            report_identity.DIGEST, "\n".join(differ))
