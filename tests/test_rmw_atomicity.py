"""RMW atomicity at the level of a whole program.

Thread 1's fetch-and-increment reads x and writes the next value right
after the write it read in modification order, so no write can come
between them; thread 3 reads x twice, coherently.  The outcomes, worked
out by hand from coherence and RMW atomicity:

- the FAI reads 0: mo is 0 < 1 < 5, and thread 3 reads (r1, r2) in
  (0,0), (0,1), (0,5), (1,1), (1,5), (5,5);
- the FAI reads 5: mo is 0 < 5 < 6, and thread 3 reads (r1, r2) in
  (0,0), (0,5), (0,6), (5,5), (5,6), (6,6).

Reading 5 and then 1 after the FAI read 0 would put 5 between 0 and 1:
a write may not be placed right after a covered write (`mem_write`), and
without that guard this program's final clause fails."""

import json

from rarcheck.cli import run_cli

RMW_ATOMIC = """name rmw-atomic
init x := 0
thread 1 { r <- FAI(x); }
thread 2 { x := 5; }
thread 3 { r1 <- x; r2 <- x; }
final { not (r = 0 and r1 = 5 and r2 = 1) }
"""

OUTCOMES = {(0, 0, 0), (0, 0, 1), (0, 0, 5), (0, 1, 1), (0, 1, 5),
            (0, 5, 5),
            (5, 0, 0), (5, 0, 5), (5, 0, 6), (5, 5, 5), (5, 5, 6),
            (5, 6, 6)}


def test_fai_admits_no_write_between_its_read_and_its_write(tmp_path,
                                                            capsys):
    path = tmp_path / "rmw-atomic.lit"
    path.write_text(RMW_ATOMIC)
    code = run_cli(["explore", str(path), "--json"])
    out = capsys.readouterr().out
    assert code == 0, out
    report = json.loads(out)
    assert report["verdict"] == "pass"
    got = [(oc["r"], oc["r1"], oc["r2"]) for oc in report["outcomes"]]
    assert len(got) == 12
    assert set(got) == OUTCOMES
