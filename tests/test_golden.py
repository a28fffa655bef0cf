"""Golden outputs: SHA-256 of every schema's bytes, CSV and JSONL, at default
and non-default arguments, pinned from a known-good build.

A digest changes only when an output byte changes.  Scan cases hash the
printed summary together with the file, and every CSV case must also pass
`verify` with its row count, which a scan case's summary prints as `rows=`.
"""

import hashlib

import pytest

from collatzstop import core
from collatzstop.cli import main

# name -> argv without --out; "--json" cases cover the JSONL typing
CASES = {
    "table1": ["table1", "--rows", "30"],
    "table1-json": ["table1", "--rows", "7", "--json"],
    "table2": ["table2", "--max-n", "467"],
    "table2-json": ["table2", "--max-n", "120", "--json"],
    "table3": ["table3"],
    "table3-window": ["table3", "--s-min", "7", "--s-max", "10"],
    "table3-json": ["table3", "--s-min", "4", "--s-max", "9", "--json"],
    "table3-census": ["table3", "--s-min", "4", "--s-max", "20"],
    "table4": ["table4", "--s-max", "20000"],
    "table4-digits": ["table4", "--s-max", "5000", "--s-min", "300"],
    "table4-records": ["table4", "--s-max", "302000"],
    "table4-json": ["table4", "--s-max", "2000", "--json"],
    "cycles": ["cycles", "--s-max", "12"],
    "cycles-alpha": ["cycles", "--s-max", "10"],  # the alpha cells are bounds.ALPHA
    "cycles-json": ["cycles", "--s-max", "8", "--json"],
    "cycles-20": ["cycles", "--s-max", "20"],
    "bounds": ["bounds", "--r", "40"],
    "bounds-args": ["bounds", "--r", "15"],
    "bounds-json": ["bounds", "--r", "10", "--json"],
    "stop": ["stop", "27"],
    "stop-cap": ["stop", "423"],
    "stop-json": ["stop", "703", "--json"],
    "traj": ["traj", "27", "--limit", "200"],
    "traj-short": ["traj", "27", "--limit", "9"],
    "traj-json": ["traj", "5", "--limit", "10", "--json"],
    "seq": ["seq", "1110100"],
    "seq-apply": ["seq", "1110100", "--apply", "7"],
    "seq-apply-miss": ["seq", "10", "--apply", "4"],
    "seq-json": ["seq", "1100", "--apply", "3", "--json"],
    "scan": ["scan", "--start", "2", "--end", "3000", "--chunk-size", "700"],
    "scan-class": ["scan", "--class", "12i+11", "--start", "2", "--end", "6000"],
    "scan-capped": ["scan", "--start", "25", "--end", "400"],
    "fig2": ["fig2", "--start", "3", "--end", "3000"],
    "fig2-capped": ["fig2", "--start", "3", "--end", "600"],
    "fig3": ["fig3", "--end", "20007"],
    "fig3-all": ["fig3", "--class", "all", "--start", "2", "--end", "2000"],
}

# name -> the step cap a case runs under, in place of core.DEFAULT_STEP_CAP
CAPS = {"scan-capped": 5, "fig2-capped": 4, "fig3-all": 10}

DIGESTS = {
    "table1": "513133b244b61bcde96fe0dc395ed4750df3bfafd14573c239fc886d0ff41dd1",
    "table1-json": "7bf4cc4189fcafa71d8f552f80619d2e7f526a99a945a2729c0ad95f9d223e30",
    "table2": "db021a540a4fc615b68b0d40492ba04b944985a58125bc98dc39ce4208acc0d8",
    "table2-json": "fff09cf46d32b771e7f955f8383198fa6de03eae464a201858f30ba8af49743a",
    "table3": "79850cb0fac6648514691a7c2e2d7a024491c0c2dae7bb71ef739524fcc8ed35",
    "table3-window": "702610caaab4f187edf82d17e948adc39baeaed6171db17af73b5dd86eefc717",
    "table3-json": "6e495bafc757ef088ac33f4d12e0f15608765f6f1fbbe9852c33b89e886b7c96",
    "table3-census": "737fe3716c67930391f2e560d64f3e4315bf884e503624043ae85c340ab0bb5a",
    "table4": "dcdbfce3188b0fd1db786226e1474d0a06f6ec5e815a11a67e0897b0349afe1e",
    "table4-digits": "a3004c299871c5c8a3a99b2f97f21b3586251cff04f631e079eb070a6fd9f5ee",
    "table4-records": "4e8703cb28e20717994462cac684f2f9b2c2ba57652b195941e68f1793717fd5",
    "table4-json": "72707c28734bea195f4e666c7e4ab65f89e324f357df76ff79247a3ca301d38a",
    "cycles": "c10a8e5e90a7fa6f7f9faa9a92706614fba2bba7f3b80a3aac74be9154ea6f7c",
    "cycles-alpha": "f14e295e94db536cd737d519261069b0231d4411cfe94144cf2648d40d430b4f",
    "cycles-json": "f76bd4142de72eee849e5a041a62243755b5e562c3d1f6e5b6ef0c3931fa43f6",
    "cycles-20": "f00ef8cbe1fd640e9943fb435de3eab1619f41b22136b5067489b13e23b7d86b",
    "bounds": "5fcdd10d9497ed81413a32ff54ad29a32c11cd31f69be8dedfea37865eac5018",
    "bounds-args": "bcaf421264418f6779d0065d1f2b81ed5176f186798e7a5546eda9f280318d28",
    "bounds-json": "55375a1921f90b1045b8bc405b9eb44ce8111e9e72744073e71b587024d5726d",
    "stop": "0e7d9570d53c0361505f75ebae8aa9878be57ef458c9c721ef43f0dec09c4050",
    "stop-cap": "be115597029a7dca71302e759c64edeefed809ede9be7baa9d0d4ef0d2c6875b",
    "stop-json": "afaad417a7d788f81eae993e05b22fca1d07c7bfc754f29493e616a55114943a",
    "traj": "eba7762a490a005f475bbb6604a5605a7a085c7661158a0483acdac3a2b3b579",
    "traj-short": "43c2802e2885959c40ae0364744bb46e0e7a015c19ec9b3e836cd3cfb34b3be1",
    "traj-json": "f44b842fb9c6bccc3bb0112cd75576d75f12a2e6fbd85953a46b0eab6fc8bcc3",
    "seq": "283b6a6a70c0e88c9bfbfc1f0b3cc62dc761ec468b404c487ae4c7ba46872356",
    "seq-apply": "969d3fdde2be762df5628d45c6c4428f42b62088c5b75e1c0955f0342aaa6805",
    "seq-apply-miss": "2410955b9a19cdd948f096ef8e562066b84107b566abdd4f4a1552dbc74706bf",
    "seq-json": "b5704685bdf6c049c11df707c5071074920c7e1e8f7f2d23dcec1a3d331ec892",
    "scan": "bfd19eddce4e1d79a9516e62ccea65e7379456c87f67eb9d55148356dfd55683",
    "scan-class": "5e28362fdf259b727086e1f3b5dd029b6703421af1b80d9f297d47402f835ebe",
    "scan-capped": "cfbe6b78393cc8683859edf52e17bf155a069e2d1cc754bbafef59781d0a4902",
    "fig2": "9d0f9ee728ff64ac367b53b3890c509e2ea7c565a2980578ce0e9c8ded9feb87",
    "fig2-capped": "537eba6e496bb85ecb1422aa85b34a9686c26311984cc82174454cbbdc4ebabd",
    "fig3": "dc4b190cf1185f89a62122e31d6390b87a6866f55e4e536516e645e51635bbba",
    "fig3-all": "0b4854151793b8bb204e235f9482cc9097243e3712f19f894ecf4f0635d37a10",
}


def test_every_case_is_pinned():
    assert set(DIGESTS) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys, monkeypatch):
    argv = CASES[name]
    monkeypatch.setattr(core, "DEFAULT_STEP_CAP", CAPS.get(name, core.DEFAULT_STEP_CAP))
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    summary = capsys.readouterr().out.encode()
    data = out.read_bytes()
    assert hashlib.sha256(data + summary).hexdigest() == DIGESTS[name]
    if "--json" not in argv:
        assert main(["verify", str(out)]) == 0
        rows = data.count(b"\n") - 1
        assert capsys.readouterr().out == f"verified {rows} rows\n"
        if argv[0] in ("scan", "fig2", "fig3"):
            assert summary.startswith(f"rows={rows} ".encode())
