"""Pinned outputs of the paper portfolio at default parameters.

The benchmark's golden digests (``benchmarks/suite/golden.json``) pin
each experiment's verdict table.  Several claims are printed only in the
notes: E1's and E2's domination reports (improvement and counterexample
counts), E16's SBA comparison and E18's uniform-agreement witness.  This
test pins both, as the SHA-256 of the rendered table and of the notes
joined by newlines, for every experiment the portfolio runs (E1–E8,
E10–E13, E15–E21).  A change to how protocol outcomes are stored or read
must leave every byte of them as it is; a change meant to alter an
output updates its digest here with the reason.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.registry import run_experiment

#: experiment id -> (table digest, notes digest).
PINNED = {
    "E1": ("570068c775d23215945e67065cfd8c238be4f2f0abc81c6cb98197fcccae72b8",
           "0867a55d356f8bf697ffa6667296a10efff30beb0683533559ffbeed28773d2c"),
    "E2": ("20ffb88e33061230c396f8daab738a75ba79374898d6a4f83ab3d32d89423429",
           "4f9d1fe5661df4028c6386e84def3f2b6ae6eb07408b3bcd37e5dcf3ece21d2d"),
    "E3": ("1eb3efec978c53fff50a17f8819f58f5657b0a115eeb646a3b02233630798e21",
           "849b1f8046ca88636393d5afa5691dd3d48fd05503a1560c2521ac98af7909db"),
    "E4": ("48f22c64380188a1d866a31b88ae57e381195c299b1e214169a48cf468154635",
           "a533f715f51bae36d5ae391c79e442571187394f9588029d27965eecce4b6de3"),
    "E5": ("096452b762ab6ea8c6eb7db0c099726337abc220a5625876855b9c7ffa8caae5",
           "e7504f8086f849960f91539ed56631481c92d6be588f07a080b9bfdf108d96c2"),
    "E6": ("b4747b56f45e8401c29d464a545dc75cf363159a72443fde2fa7b8e83651623f",
           "ffd0bcc53812b6df86741f6c559bbd4ed2ac946af45a13ec9c718d0c009d2e29"),
    "E7": ("27f000621ef29f4a21b749873225e3ea375b8c65c93fd014b2bdbda579ec8d1b",
           "ffd0bcc53812b6df86741f6c559bbd4ed2ac946af45a13ec9c718d0c009d2e29"),
    "E8": ("ad0e991fcc534de5cffb41c221496042f67d0263d39578ce6f0d05a7263e9711",
           "ab040d19e5a711a3cb5680692badadd9179d2cfd50115e25362b02c48db5ab23"),
    "E10": ("9d3aa648de0e192a67190f8b5c604415e192f4dfd70189b866cd978d4e199e92",
            "d5d481f1a54596df1a34d3336773e9ca2608b0943607d677051498ac56ec2856"),
    "E11": ("99533c6495cc87fda8d262c8838f7bf20e4a4eb5ffc998a0c644d9c6df401e81",
            "fc4a91cd65a461201b38e990bdce4411f12b80cb4538871f0535f1ea1874e6e7"),
    "E12": ("d54d490ebfd3788c2a8444a3b231ba25af59afc652193ad065552b6f0cb0dcba",
            "809e17465f5a9f8b98ff6896aa9e9bb41d9e45261bf7a10c1878f80ebafae7d2"),
    "E13": ("ced7cf1aa2f15da8296932918c981653b0aa4355f896e4f1f6bdfd59df1a9f3b",
            "98d8e673eff8b5257a7225ed2628051b8ced4d2b0df2f02dd934209d2d291bab"),
    "E15": ("6257442eb4e074eac6b03808d5236a6b9bf37de48b4fced602e65d9ac5db940a",
            "66e64b35b0dc825b67ef76a3eaa2c2736b535544e9848892bd49fb015c7a9903"),
    "E16": ("9a5e50983758e0cf84b24b0746dec9ed2b6278c6f1153039c5a11de41f2f29c4",
            "15f3912491f6fd87f73f3ad77be049df96e973a45bba34c820b0fbfad25e7ba8"),
    "E17": ("14853df28f5d262c57fde4d3696cd24f0ec1ed297b083e4b4a72caa221984044",
            "e4bc7b2930dea50408fc4b87fd2de34feac6fda3194cbdbf8aaac69152aa84a6"),
    "E18": ("d773e1059bcdc620833e1b9229627b59305e5ae235f082415bd38172d4a7c8cb",
            "1f1668c6342974739fdcedbfbfed2926fa17bf0d5f98ae3f378736feca2b852b"),
    "E19": ("43ee206c9c2f455ca5b0fc60d817415a8846b3e75e59fd5ab72fca859712d950",
            "3f31c61603a9a0ef1ec215d0bb9e3d788a51afd84edb3aeecfb3d5243d8a7dc9"),
    "E20": ("9e51b09c2e4e857155a478de69b14a0c6ec9b3da1a6b8cfc58bf18f20dbae8e1",
            "7dfd7ffe6f43d2290d061da93c8bca7a088b2dfc133bb2a2abf73997f8bbbed9"),
    "E21": ("e3841ec7a3e263b933790d2eda1776ec8f54a1a9fd2f4a4b3416b4e0b008a5a0",
            "524e83402d0d72a238a4a0e0015f220ff9c3a29bf6f52d11449f85a468239d49"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("experiment_id", list(PINNED))
def test_table_and_notes_pinned(experiment_id):
    result = run_experiment(experiment_id)
    assert result.ok
    table, notes = PINNED[experiment_id]
    assert _sha256(result.table) == table, result.table
    assert _sha256("\n".join(result.notes)) == notes, result.notes
