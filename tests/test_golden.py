"""Byte-for-byte regression guard on the CLI's artifacts.

For seeds 0-9 at K=2 and K=3, ``gen --seed s`` writes an instance, then
``reduce`` and ``solve --method dp`` run on it with the same seed and K.
The digests below are the sha256 of those two output files.  Both hold
answers only (the solve record no longer carries the DP's ``states`` and
``max_depth`` counters, which go to ``--stats-out``), so any change to an
answer, a rectangle id, a cost, a shift or the record layout shows up here,
and a change to how the DP searches does not.  The solve digests were taken
from the same answers the earlier, counter-carrying records held.

``verify --seed 0 --trials 200 --out`` (K=2, defaults) is pinned the same
way: its summary carries the DP's and the oracle's selection for every
trial, so a change to either solver's answers shows up there.
"""

import hashlib

import pytest

from flowcover.cli import main

GOLDEN = {
    (2, 0): (
        "676c93debf2dfa718485668ca1737e04ce6c8dc364123e100538cb8733db1e1a",
        "2e4375f107b6817d172e4dd34dc8c856461fdfd00a0812d945035422f2f8798a",
    ),
    (2, 1): (
        "4d64be3c9b51cfb7eef5fcf4dbd93f8861fcac6fad7ff7fba81621270c83d219",
        "2ca703e4147f788b84ac7f73d415ad7184a3a5b3c369407016c3c967f2411208",
    ),
    (2, 2): (
        "2cef3ee37ae2d4d5035b1f284928ff4b03a9daedcb4b842a3a03a7a201b7dde8",
        "cb96577fe3a2d9e5c0510858011bf3bdd1e72c801898c0cd79588d88915d5189",
    ),
    (2, 3): (
        "18ffd9fb2ab13fac18bf7468ed3397647da9bbd072fe8e1acd1551cae82b7bc6",
        "2871d0aa6f7ce2cb787b56a7a2f91d42f2820c87f7b52b89baa324fccd3431d3",
    ),
    (2, 4): (
        "8b8c646058c04773b7e2a0cd437436b7e0ae9877d610d15c3cf33a5683dcf16e",
        "cbb11aa3453c88d563cd2e87f38c0c186b6dcb1bc66ce9b636facd93f6ec32e0",
    ),
    (2, 5): (
        "268e776e15bd8ef5e5bb5ea14d035451d29d2c92c36105ee4482129839cd20e9",
        "b39becc98abf8f55c6c55023f305dc2b8591d6e69f3bfea79f1ffbd40ea44c28",
    ),
    (2, 6): (
        "5f25e42726f22efae72778c892a3094b1d68603e64abed92a2c7c626a3369317",
        "c4f17bbda1714b46b23c92a3bef2b97ac4e52272fd9df7ddb3a8c781dde129db",
    ),
    (2, 7): (
        "3a9bc542cc7b02b9d087e93e0228eb33aa187444350f23202d28135575ef95dc",
        "01dd8b5515cf70bf7a0640302c879d7e1fc758282bf1ed541c6f1450f1f113ef",
    ),
    (2, 8): (
        "a62e56a6c1fabe4514c183979a147f110e4a7e34b114227d83d186b5197f7022",
        "422426bc29b0006201922e7d3ea587b90fd14d025560df5b0b2bf246e4d9aa5f",
    ),
    (2, 9): (
        "b94c31543b0c2e6952a4d5f8bd26579f6c0ec9401c62f1c82ba90e425bed8ff5",
        "175586b12cf8e36505c94bdac8e960cecb4e82b68abea3ebf2a36ebd735cd298",
    ),
    (3, 0): (
        "08e77d60bb8939d5f01d747b1508fadf9f4c80861640fd67b12924ba305b3ff8",
        "6a2d9f473250d213305cbdc69d7fdc27574e2ed428eddb585c8ddca21c6f27ae",
    ),
    (3, 1): (
        "5daa454873f3a0a3b45c62f9c96ec1e21c9481975ed924c98fd8e426e7ed7fd3",
        "25ac239c590409ea04e69e41a1f4fda33224112a19afdd9c57021f510f21221d",
    ),
    (3, 2): (
        "f56cd0e6aa9216a2da22ea6bf2f933bfee82fe16764a3ad36ddcd25e48fb720c",
        "c33c03911979f9c8474e5e3c0d2bec2c2d54fe54d40cee22c52c3841c3a32a54",
    ),
    (3, 3): (
        "56f5c1a3e9c5e5d45fd8127d9623ce3c0366e7a401eb91031b61211651879604",
        "5467ab240c8658bef012700badff57a95fa9fba7ba24737efa48d3ebc46e68a4",
    ),
    (3, 4): (
        "c746eb0633fe07db2fee8f543896e0c741a4d7f9a885efe3beb1216f1987d85f",
        "3fa2fad57d3c8ac5151e9c570c68c2fac3bde734a9e5374e8498637c92ac2585",
    ),
    (3, 5): (
        "0e4486351d2d831b80adea6302dc55a95328f1235ff4343dd6a67020c12dc404",
        "6c1366531a256603388cb0667ac0da9b1669a2c81dba245624123abc23ef8bef",
    ),
    (3, 6): (
        "d34ad86143d59e45b70605d6df265a1e9335cac353f98f3b50ff2106ad369592",
        "df83fd0792de1083caf00646edc609c88f0033af3e3f06c43826a7e801136417",
    ),
    (3, 7): (
        "42b6af4baaef3d3de4ab4efe40e732ac588a34bfa375f7c7350094728f948674",
        "ba9ee2ced1e9bfcf61c6a434d63621980c202422cc44eff77b6a9cfa24e08c0f",
    ),
    (3, 8): (
        "356a55e2a290e1d1c0d0b0b7e32a40e3de49d12ec7649664f62fbe43c6cd810c",
        "7e7c969ddfedab0e67786b87d168ad990e2ce6ea6ca983c38818c6dfab399ad1",
    ),
    (3, 9): (
        "2f1d03887355cae76fb246e05193af17aaf32b627754a36b0165238daf0119a5",
        "a0047cbe544ec19e2eb1362a1bf6d68edd3425457644cbc6f1a043d5d3dd05b3",
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


VERIFY_SEED0_TRIALS200 = "cc0b4ee4ed506c0a6bf066451d021634d9b7e8033cdb28850e424f1fcdecb528"


def test_verify_summary_matches_golden_digest(tmp_path, capsys):
    out = tmp_path / "summary.json"
    assert main(["verify", "--seed", "0", "--trials", "200", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VERIFY_SEED0_TRIALS200
