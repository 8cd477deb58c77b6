"""Golden digests of the hunt's seed -> execution mapping.

A hunt names each try by ``(program, model, policy, seed)`` and trusts
the simulator to turn that name into the same execution every time:
saved recordings, checkpoints and resumed hunts all depend on it.
Each digest below is sha256 over 20 recorded executions, seeds 0-19 in
order: for each, the JSON recording exactly as ``ExecutionRecording.save``
writes it, then every field of every operation of the stream.  They
cover the buggy work queue and ``locked_counter_program(4, 4)`` on all
seven models under the hunt's three default policies, and were
computed with the per-opcode interpreter that the lowered simulator
replaced.  A digest that moves means the seed -> execution mapping
moved: that must be a deliberate, documented change, never a side
effect.
"""

import hashlib
import json

import pytest

from repro.analysis import default_policies
from repro.machine.models import ALL_MODEL_NAMES, make_model
from repro.machine.replay import record_execution
from repro.programs import buggy_workqueue_program, locked_counter_program

PROGRAMS = {
    "workqueue-buggy": buggy_workqueue_program,
    "locked-counter-4x4": lambda: locked_counter_program(4, 4),
}

GOLDEN = {
    "workqueue-buggy/SC/stubborn":
        "85bac4e440e4a2212af29fbe184cc65ef72a94b44d1488587bec2eeb5d253dac",
    "workqueue-buggy/SC/random-0.2":
        "85bac4e440e4a2212af29fbe184cc65ef72a94b44d1488587bec2eeb5d253dac",
    "workqueue-buggy/SC/ring":
        "85bac4e440e4a2212af29fbe184cc65ef72a94b44d1488587bec2eeb5d253dac",
    "workqueue-buggy/WO/stubborn":
        "1bae0264279120d7fc0b58551236e878df182654a688a11673e45ac4c434f65f",
    "workqueue-buggy/WO/random-0.2":
        "a56ccff4d164020ac88389517a25f95f6bc342ee697c601186b007d3fdb70ff8",
    "workqueue-buggy/WO/ring":
        "7788ec6e272d35a7632808e95cece73f41e4234bf965276be3d7e3f64baf9bb9",
    "workqueue-buggy/RCsc/stubborn":
        "bb4837cea6c1cd4c125dd3513e8a82b0d5c26d87682e84efcddad0de33364c3a",
    "workqueue-buggy/RCsc/random-0.2":
        "e411d92354670a6971dfaa2d6d1d66bca873906900233dbed575d0c1facc4d70",
    "workqueue-buggy/RCsc/ring":
        "4b40f71c901ff4a69749af4179574c1532c968ac95fc8720716cf6ce153ede2a",
    "workqueue-buggy/DRF0/stubborn":
        "cae286ad07db2ab5132d303044a438d4dddf6728b187d22a6a8ee2ba9da4eb67",
    "workqueue-buggy/DRF0/random-0.2":
        "39802b6ff7e907ef7f27846509aa190f1f4c23ac8aa5d06cb0ec1a600473155a",
    "workqueue-buggy/DRF0/ring":
        "26695cbe8eb710dac06908ceb651480b2137cdefc42cc496ac798d6d2485d23e",
    "workqueue-buggy/DRF1/stubborn":
        "b1940da0646dd7c9cd5d6379b47cad0e457d138f0c4d8ae07cfaa302cd9737f8",
    "workqueue-buggy/DRF1/random-0.2":
        "c8ff58a80e02c6f8cfe350da12b33e7ef9c0f6e5b9ba78d7341e049b7608db9f",
    "workqueue-buggy/DRF1/ring":
        "9498b1767e823156b76aadc401a2f75c035adff80f5ae351e5bd39ec24d2d1e9",
    "workqueue-buggy/TSO/stubborn":
        "231c8aa34b0a0e0007f6ecc53c6a15761573173f0090e50400c7a7df0b6bc7ef",
    "workqueue-buggy/TSO/random-0.2":
        "d28e24b5ec26b7193e5ccabf618a362ca6c680e59589d43e370ed34501315dcd",
    "workqueue-buggy/TSO/ring":
        "dffb566c38b777f8ecc9e24772cc07c5bb62ebba485af96c4dceb6e5a12b0217",
    "workqueue-buggy/PSO/stubborn":
        "57699793b919a9ed6dfb97c00822c9c73329ef88ca44211cb7eb518c1fe6393a",
    "workqueue-buggy/PSO/random-0.2":
        "ae864ddaff1b54cc67cb5e9ad21db41a98645b5c99624244bd7d157e966a0a4b",
    "workqueue-buggy/PSO/ring":
        "36d3d5aa1a90e2d54425643177de63326d5ff35afe37f8a8d17ac01cedeaff81",
    "locked-counter-4x4/SC/stubborn":
        "a54c905843c5b458ad7d65af20d49193b9de6a0f7e4fc34a90ed49e5ca233589",
    "locked-counter-4x4/SC/random-0.2":
        "a54c905843c5b458ad7d65af20d49193b9de6a0f7e4fc34a90ed49e5ca233589",
    "locked-counter-4x4/SC/ring":
        "a54c905843c5b458ad7d65af20d49193b9de6a0f7e4fc34a90ed49e5ca233589",
    "locked-counter-4x4/WO/stubborn":
        "d868cda60074952982172ba704758b36d3a7999ba58ba93813a5e075b5166969",
    "locked-counter-4x4/WO/random-0.2":
        "b637d5697c59a62f115408de5addf041e97bf9ff914e911689c833435b2ed89d",
    "locked-counter-4x4/WO/ring":
        "de2b26519e46ef0b3c910c4c0c540d6770118133f60ebe7d2348cf39d9fef8c5",
    "locked-counter-4x4/RCsc/stubborn":
        "c1ea1c5ebeffc90c7c23451b2f0733dfa294fb468ba0743be8ae3b7ec536eddf",
    "locked-counter-4x4/RCsc/random-0.2":
        "fa7a148c49fa1c45b2b7b872602db6119203a8d1f20d2f4b9b65d41bf63c997a",
    "locked-counter-4x4/RCsc/ring":
        "66ff8e454d82dc0247df6584e6e302a3498a89b21403351f27c4bc1b5a92015c",
    "locked-counter-4x4/DRF0/stubborn":
        "370dd714d2dc98ae8e84cbe5c938a06394cb2b249951668945ec50880ad24c38",
    "locked-counter-4x4/DRF0/random-0.2":
        "97f9648f057a022febe0614fe7e429a76f060c0d2acd52b97123c7af25b1e4d2",
    "locked-counter-4x4/DRF0/ring":
        "dcf4a8d70eba54a50e11a38ddc235030a029ce4fbd656f6dd4128d95f4798595",
    "locked-counter-4x4/DRF1/stubborn":
        "7e85025983e96a9e8ce8dfd6ec09de353a7a65b25fe91f27e3e3467f4c72151d",
    "locked-counter-4x4/DRF1/random-0.2":
        "e474bee7134d3bfcb4581af799506ad24639279648b24ff7da8a5e368f7aecca",
    "locked-counter-4x4/DRF1/ring":
        "ace982a205be5f69081d476e6475810c9f6a17fb346ac97f7dcf81505b15e3fb",
    "locked-counter-4x4/TSO/stubborn":
        "49c093cea101cdc8198affd79892eea192eec17c823d158fa0c9b6fc0a7e931d",
    "locked-counter-4x4/TSO/random-0.2":
        "b8cd1e8c0ca4fcb778e20bfbd47b9689517924b7815ec785282b9e3046fe9f54",
    "locked-counter-4x4/TSO/ring":
        "9eb48a254dc0dbee2975cc2b3b4a6ce44f757dbad31fa67f5bed0a34ed22afd9",
    "locked-counter-4x4/PSO/stubborn":
        "7a74f86f3db371d03ce94c55fa69d86dcb5e1f4218e1e086497e9c6516dca351",
    "locked-counter-4x4/PSO/random-0.2":
        "247abe943cb98034eb25492b7c352fc500319d424b02fd1cb0e0136c30fd357e",
    "locked-counter-4x4/PSO/ring":
        "4b12f7b63efa2bfd615a6ef75e72112255e08fab013afb46763ed3b991e21f88",
}


def _op_row(op):
    return [op.seq, op.proc, op.local_index, op.kind.value, op.role.value,
            op.addr, op.value, op.observed_write, op.stale, op.instr_index]


def _digest(program, model: str, policy) -> str:
    h = hashlib.sha256()
    for seed in range(20):
        execution, recording = record_execution(
            program, make_model(model), seed=seed, propagation=policy()
        )
        h.update(json.dumps(recording.to_payload()).encode())
        h.update(json.dumps([_op_row(op) for op in execution.operations]).encode())
    return h.hexdigest()


def test_golden_table_covers_every_model_and_default_policy():
    for name, build in PROGRAMS.items():
        policies = default_policies(build().processor_count)
        expected = {
            f"{name}/{model}/{policy}"
            for model in ALL_MODEL_NAMES for policy, _ in policies
        }
        assert expected <= set(GOLDEN), sorted(expected - set(GOLDEN))
    assert len(GOLDEN) == 2 * len(ALL_MODEL_NAMES) * 3


@pytest.mark.parametrize("name", sorted(PROGRAMS))
@pytest.mark.parametrize("model", ALL_MODEL_NAMES)
def test_recordings_and_operation_streams_match_golden(name, model):
    program = PROGRAMS[name]()
    for policy_name, policy in default_policies(program.processor_count):
        key = f"{name}/{model}/{policy_name}"
        assert _digest(program, model, policy) == GOLDEN[key], key
