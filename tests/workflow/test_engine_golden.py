"""Golden fault-free traces of the workflow engine.

Each entry is the sha256 of ``ExecutionTrace.to_json()`` for one
fault-free run, keyed by (graph seed, policy, on the reference
ecosystem). The table was recorded with the separate fault-free engine
that ``ResilientServer`` replaced; a run with no chaos schedule must
reproduce it byte for byte, with and without a journal attached (the
recorded hashes did not depend on the journal either).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chaos import random_task_graph
from repro.platform.topology import build_reference_ecosystem
from repro.workflow.journal import RunJournal
from repro.workflow.recovery import ResilientServer
from repro.workflow.scheduler import make_policy
from repro.workflow.worker import Worker

GOLDEN = {
    (0, 'fifo', False):
        "1ff902ac942154a51bbcab6e4601566d991769cfbaa939b1bdf7190cd8ad36d0",
    (0, 'fifo', True):
        "430ad7c6c043e56ac887e83770212485da16de12af241b9e8159202bae9f7cf6",
    (0, 'b-level', False):
        "b80d41def9fad1657ec441ce8306b8aed1114a45fc8b862e1d69435bc14deaab",
    (0, 'b-level', True):
        "6c69388482ca0c16e834a802542c31b730d3d4c8bad45d17230a4b5aa1ea3c82",
    (0, 'locality', False):
        "1726eb0e436f01506f49da036db7336e9be80f4a9c6f65fecf270b760d61ff9e",
    (0, 'locality', True):
        "6827945b5b2ca3b6e2455a4f7be97854e1c9f0005d0dc5e98f2c1dec2500dfd2",
    (1, 'fifo', False):
        "d0e5ba1c078e053d348845bd17b5fc6880ae70a78bf93a3e3d68954e188511a9",
    (1, 'fifo', True):
        "985ba6c79fc48bdbec4c59803ead6da9cad2dd155454b6f1314d8ff489583e1e",
    (1, 'b-level', False):
        "c3ae1543f225a3da141dd0d3467b94b3fb54cb2ac18b5ed9c79f373155a2541d",
    (1, 'b-level', True):
        "1fb72c27daf6e2b5cae2f1fdeb063c9d68af3e523d493d337c00c6e6ac2e599c",
    (1, 'locality', False):
        "5a8189f32cd9f84b61b856b8327530cc1b2718948794f714af9ead3adc41f17c",
    (1, 'locality', True):
        "ee03fcaa29d0cbeacc27acf89ff600fa30987329bbd5b78daf2eb21af52964a6",
    (2, 'fifo', False):
        "2ef0600ca11ef80e6a68ad0f652ab4c9988c7f55acd0dc236990a3594166cc01",
    (2, 'fifo', True):
        "796874db046c0255e975c936323bb35bf27abb65fc91e6e4694060b380ef93b8",
    (2, 'b-level', False):
        "ff45d7adb6838812141ecbecf128385eb56390a4ae577bfa95e1b80df98f30c0",
    (2, 'b-level', True):
        "5fae180a33c1afff4862a6f716c738e43bc15b969714d2c8fa216142fcc6a473",
    (2, 'locality', False):
        "7b5cb38504f109c31fd22e9e8d2f1d25f86017222c50e0dd57330602c53e0403",
    (2, 'locality', True):
        "268e60785e90012ad596a152ba36d40d03961532ce8450915fa6c4d6352da4bc",
    (3, 'fifo', False):
        "61ca9a0994bf3abc9f6f1c501e41b47942dd1b36cf1439f486388bdab41ce80a",
    (3, 'fifo', True):
        "ce866bc06635a0ad9895b93d36f9636d0889d204f4cd6f253afe7c0919a079c8",
    (3, 'b-level', False):
        "ebdc71cab40120bba693c3613664f68a6ebbbd07dddda01f319e9798c4ffaf41",
    (3, 'b-level', True):
        "f9ccd794b911d25d8fbf64ee241cbeb2610606726968b3999bae63e5a51370f3",
    (3, 'locality', False):
        "8c28725936dfd64c3e01f4ccb44491524f7cca6867ce594b2b9d54e363647a36",
    (3, 'locality', True):
        "106ce8555feabb861650dccdaea4f51234ec243383f3882fb179f422c8a1fcf4",
    (4, 'fifo', False):
        "5c8597f238b83694ba902e4d03278e6e484aa32730e947622b1717d3c7031f17",
    (4, 'fifo', True):
        "e54c8880dee3f98c7eb3edbd4ef6341957a51ba99d32a005f4115c146b9b65c0",
    (4, 'b-level', False):
        "52959cc588d8cf1991f498ace8ce222370bd921806e56fc3c8c10f57e49f93a9",
    (4, 'b-level', True):
        "03be4bef0e9715b22bc06cab36818461a3f8668274b924d6e205fc6e51e07f0c",
    (4, 'locality', False):
        "a0580af32869bea5e6b532f24dd63ac022bf663479195028694b6dcbeb9b2172",
    (4, 'locality', True):
        "ff5a6812ba84c1b0903bab7e2bd31897227c4012a543479fe5c8adb41b97723d",
    (5, 'fifo', False):
        "a231969392393e116d9243f239ec7a612cb546f28d6400e9c7fc043bceae59f6",
    (5, 'fifo', True):
        "a57b4e7916d3e208b4724ec7948022e1fea01a7fa83aa64a5318995addb443a5",
    (5, 'b-level', False):
        "3ec8aec7759fa4b76e537552667e8a64127a10b072035035a7ecea77497ead32",
    (5, 'b-level', True):
        "d0da549cbc4489d5e2f3634da80d6cb077fb79fefbec4278ca6818384e54d884",
    (5, 'locality', False):
        "1d4570251e7dc0c2f49d5e824e2926f0a3492f024fbe722f289793c3febf4570",
    (5, 'locality', True):
        "72a41215deaaf5249ed57a2d818539840aa32ca892fcf09eb17e4a3579e28a7c",
    (6, 'fifo', False):
        "0348cde77e5f0be7a5aecbb8ef766bce1bd2077e5dc7dc8659318de9a49ddf7f",
    (6, 'fifo', True):
        "a0a56c3fafa8105f93c6e774a043401d17958edac1aad4390d1478e2aefdaea5",
    (6, 'b-level', False):
        "507b9e32643ccc8a6bea6989bfa5b561ab66e9d19ef4558bad6f08b9fd780c93",
    (6, 'b-level', True):
        "2d4de1d9357efe17c23f5397c04de18da471549ece7f1242274b43a1c96759f8",
    (6, 'locality', False):
        "1669b584af80ba3f1037eb32034a2f0c01f73041ff94c6ddd811a0e98d31da4c",
    (6, 'locality', True):
        "6be47caf3bdcfae01f9ace743b5b379bf920c64187a884fb488ad7d30cdb210f",
    (7, 'fifo', False):
        "d69f79278e760c9e51419991973e1e04e2e05c443bd5202979b19c18ca4cf0ab",
    (7, 'fifo', True):
        "db14b66a60ca6e707249b4b4539d19819c083b5d3c89938878bbb0be68b52be5",
    (7, 'b-level', False):
        "8c7b0c119288dd15cfad01a7de5eed897085e2147a85fddf4aac9a19aaa6a2d6",
    (7, 'b-level', True):
        "177c32a75f33060d92d62b4405f3c275f8dac7ab3dcc826df22bb3c48f975686",
    (7, 'locality', False):
        "2f060c1a22bd8cb25491ff3bcd39ff66742f0602ad51e378966c11c41662b75a",
    (7, 'locality', True):
        "9d2bb59fbe5d556a8ca265fafeae03163ffced4780e9fc3ebaeb2239ab25b10b",
}


def pool(on_ecosystem: bool):
    """Three workers, two of them off the reference speed."""
    nodes = (("edge-0", "power9-0", "cloudfpga-0") if on_ecosystem
             else ("n0", "n1", "n2"))
    return [
        Worker("w0", node_name=nodes[0], cpus=2),
        Worker("w1", node_name=nodes[1], cpus=2, speed_factor=1.5),
        Worker("w2", node_name=nodes[2], cpus=1, speed_factor=0.7),
    ]


@pytest.mark.parametrize("journaled", [False, True],
                         ids=["plain", "journaled"])
@pytest.mark.parametrize("seed,policy,on_ecosystem", sorted(GOLDEN))
def test_fault_free_trace_matches_golden(seed, policy, on_ecosystem,
                                         journaled, tmp_path):
    graph = random_task_graph(seed, num_tasks=6 + 5 * seed)
    server = ResilientServer(
        pool(on_ecosystem),
        ecosystem=build_reference_ecosystem() if on_ecosystem else None,
        policy=make_policy(policy),
    )
    journal = RunJournal(tmp_path) if journaled else None
    try:
        trace, stats = server.run(graph, journal=journal)
    finally:
        if journal is not None:
            journal.close()
    assert stats.failures == 0 and stats.retries == 0
    digest = hashlib.sha256(trace.to_json().encode()).hexdigest()
    assert digest == GOLDEN[(seed, policy, on_ecosystem)]
