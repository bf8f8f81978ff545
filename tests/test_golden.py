"""Byte-for-byte regression guard on the CLI's artifacts.

For seeds 0-9 at K=2 and K=3, ``gen --seed s`` writes an instance, then
``reduce`` and ``solve --method dp`` run on it with the same seed and K.
The digests below are the sha256 of those two output files as the code
wrote them before the grid was built lazily and before the anchor-block
feasibility scan; any change to an answer, a rectangle id, a cost, a shift
or the record layout shows up here.

``verify --seed 0 --trials 200 --out`` (K=2, defaults) is pinned the same
way: its summary carries the oracle's selection for every trial, so a change
to the oracle's answers shows up there.
"""

import hashlib

import pytest

from flowcover.cli import main

GOLDEN = {
    (2, 0): (
        "676c93debf2dfa718485668ca1737e04ce6c8dc364123e100538cb8733db1e1a",
        "f5436d0dff40c56ede33097e8c96d15e1c494c660d968e74b009457106fa92fb",
    ),
    (2, 1): (
        "4d64be3c9b51cfb7eef5fcf4dbd93f8861fcac6fad7ff7fba81621270c83d219",
        "1a6eae4a942a3f59e65b49ba55f0d4c20c7026f9808f6fb3528d8a749ef2b591",
    ),
    (2, 2): (
        "2cef3ee37ae2d4d5035b1f284928ff4b03a9daedcb4b842a3a03a7a201b7dde8",
        "41ed7651501dbb28b05d8088cac6d5a3a50e1546f9827eac463eeaa744943a96",
    ),
    (2, 3): (
        "18ffd9fb2ab13fac18bf7468ed3397647da9bbd072fe8e1acd1551cae82b7bc6",
        "5933143b56f29bb53e88c470200139833a48103a32a372e1ceb96351320f71e0",
    ),
    (2, 4): (
        "8b8c646058c04773b7e2a0cd437436b7e0ae9877d610d15c3cf33a5683dcf16e",
        "eaa479c8a2b9afd1bd0c359bad90ff1f0f1abf1dbf4da930c56482c18e18b576",
    ),
    (2, 5): (
        "268e776e15bd8ef5e5bb5ea14d035451d29d2c92c36105ee4482129839cd20e9",
        "2a54e0a8c0bd79373509b519d6d7cda321a46cd3d60cc844b5cdf24ca9e4fbab",
    ),
    (2, 6): (
        "5f25e42726f22efae72778c892a3094b1d68603e64abed92a2c7c626a3369317",
        "02f87f6af0c81b83455af278b69109b83a9deebba5da4524394d154a1250f0ca",
    ),
    (2, 7): (
        "3a9bc542cc7b02b9d087e93e0228eb33aa187444350f23202d28135575ef95dc",
        "963a9f4e453ae4f7e9290897e34e95271da45b4329e083e4c40d64a6da5a857d",
    ),
    (2, 8): (
        "a62e56a6c1fabe4514c183979a147f110e4a7e34b114227d83d186b5197f7022",
        "d7a46cd945be0007c77e6f3c8a58a7deed3cb54324447e1ca6b52fccf4694e4c",
    ),
    (2, 9): (
        "b94c31543b0c2e6952a4d5f8bd26579f6c0ec9401c62f1c82ba90e425bed8ff5",
        "9f80e4e4422ff4f9da6d33c57c1456652e6083e47f1df14840af4064935b4628",
    ),
    (3, 0): (
        "08e77d60bb8939d5f01d747b1508fadf9f4c80861640fd67b12924ba305b3ff8",
        "0dbe385336f2cc4e98e2f39cc93d6d81b566fe021748d427c60ec452214e4205",
    ),
    (3, 1): (
        "5daa454873f3a0a3b45c62f9c96ec1e21c9481975ed924c98fd8e426e7ed7fd3",
        "5d3a7488f2adc0e8b40f02bdff2362c8743d057706e140ffd2f5af67c955cfd1",
    ),
    (3, 2): (
        "f56cd0e6aa9216a2da22ea6bf2f933bfee82fe16764a3ad36ddcd25e48fb720c",
        "595fb244f99cd57e9d0dacad30b72d00eede758fb38f23518f0f5d964276a3b1",
    ),
    (3, 3): (
        "56f5c1a3e9c5e5d45fd8127d9623ce3c0366e7a401eb91031b61211651879604",
        "a4cb41b4b9bf03437b524176be62e41280aa36bf288f05247cabd3bdb08e6872",
    ),
    (3, 4): (
        "c746eb0633fe07db2fee8f543896e0c741a4d7f9a885efe3beb1216f1987d85f",
        "74883b4268af9de724892c486ee9156aa8c52a6c9c405083a6817bcfeb26d5ce",
    ),
    (3, 5): (
        "0e4486351d2d831b80adea6302dc55a95328f1235ff4343dd6a67020c12dc404",
        "40495d9979a9586c885c9f2cdc350ade653d976375939a46eb9bedaa5bcb6272",
    ),
    (3, 6): (
        "d34ad86143d59e45b70605d6df265a1e9335cac353f98f3b50ff2106ad369592",
        "7ab6f7a88a86c494b1ab0c2719d0fefe8bf402744445ee8fdead7838d1131c8f",
    ),
    (3, 7): (
        "42b6af4baaef3d3de4ab4efe40e732ac588a34bfa375f7c7350094728f948674",
        "86be62aba4f5ac3a060d61f9ac81fb40c133058d1436789976107a8682c3fae7",
    ),
    (3, 8): (
        "356a55e2a290e1d1c0d0b0b7e32a40e3de49d12ec7649664f62fbe43c6cd810c",
        "23e1790835800daa9e66b44ac04e74dee7f7ef736be1965e4fc5093874698f10",
    ),
    (3, 9): (
        "2f1d03887355cae76fb246e05193af17aaf32b627754a36b0165238daf0119a5",
        "3b8845c579681097e7eeb359c5d24d861479ef7e60423f6d8fe8588606a1ee74",
    ),
}


@pytest.mark.parametrize("K", [2, 3])
def test_reduce_and_solve_artifacts_match_golden_digests(K, tmp_path):
    for seed in range(10):
        inst = tmp_path / f"inst{seed}.json"
        assert main(["gen", "--seed", str(seed), "--out", str(inst)]) == 0
        digests = []
        for command in (["reduce"], ["solve", "--method", "dp"]):
            out = tmp_path / f"{command[0]}{seed}.json"
            argv = command + ["--instance", str(inst), "--seed", str(seed), "--K", str(K)]
            assert main(argv + ["--out", str(out)]) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert tuple(digests) == GOLDEN[(K, seed)], (K, seed)


VERIFY_SEED0_TRIALS200 = "657dc9ec3fdfe799552f7136f44453b3c3306dda6faa515667b65d22d89ca5b6"


def test_verify_summary_matches_golden_digest(tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert main(["verify", "--seed", "0", "--trials", "200", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SEED0_TRIALS200
