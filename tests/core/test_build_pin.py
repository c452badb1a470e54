"""Build pin: the saved bytes and the construction ledger of a small index.

Two small random-walk indices (seeds 97 and 108), each saved to a
directory.  Their Tardis-G is deep enough that dozens of records fall
back to an internal child and descend below it, so routing's post-
fallback rule is part of what is pinned.  The sha256 of every file in it, and the construction
ledger's stage labels, task counts, network seconds and io seconds, are
fixed values: a change to how the build routes, shuffles, orders rows,
fills Bloom filters or prices simulated bytes fails here, whatever it
does to the clock.  CPU and wall seconds are measured, so they are not
pinned.  The digests are of deflated members, so they assume the zlib
that wrote them (the stdlib one).
"""

import hashlib

import pytest

from repro.cluster import SimCluster
from repro.core import TardisConfig, build_tardis_index, save_index
from repro.tsdb import random_walk

CONFIG = TardisConfig(g_max_size=100, l_max_size=20)

FILES_SHA256 = {
    97: {
        "global_index.json":
            "9a9c5e301cf5d206b73b9af1ce1ef66485707df9154db5c017e277664f9000a1",
        "meta.json":
            "a5f54c255877b0ea73ae9641ff4e414e37ba360480704b736ab77fcbca2a7768",
        "partitions/p00000.npz":
            "90c83c67ce89c6acf58a9e9d8c6bd67f2205ae89e3633faab460db31ac308f42",
        "partitions/p00001.npz":
            "2bbc8c5a35dc4a018758ae59c4d75725fe56507388c897d71efeaf1f4935dd32",
        "partitions/p00002.npz":
            "010cc91de3a7eae1ae5c7bbee940d64da1e0e39c0cdf580a37282e5e887f0c3e",
        "partitions/p00003.npz":
            "fa1d3f493c278a51363e41a3a37d3aded06d797df4897b541763e973fd2a24ba",
        "partitions/p00004.npz":
            "4b14f7fcb9603416b1338203c4006660f854d16f32fe36c5be53f24d38d64e17",
        "partitions/p00005.npz":
            "21c2a1e79fbd2d5bd4f0d770d8d5c09521c7c1c9c9e9ae59098586f6ad9727e2",
        "partitions/p00006.npz":
            "bfe23d271405c1ec7a8a21a75b4c152285730d1b1daeccaa89fed1bb8d06f5f1",
        "partitions/p00007.npz":
            "5d5909c29bafe170442aa500ae470defcc29c437eef835ee89741ac94fb8c3cd",
        "partitions/p00008.npz":
            "a75df4d946c802b5719e0d5c0e032ea611cb293b5b03f7b445fb2b3a37886b0b",
        "partitions/p00009.npz":
            "dc1dbe2e1b8b02b32af0c7246348ec802c3fae6a0725b802e0aa5cd5e9388599",
        "partitions/p00010.npz":
            "f1733beff89b880eccf4ec964e84ed7ba701b0470f26e9c0db5095b9048ba664",
        "partitions/p00011.npz":
            "7fbbfedeef6ae573f834fc5f6d402dde61f85e7b21e6aef0e505e2d06ef80362",
        "partitions/p00012.npz":
            "f6d4d7526711b72eff49dea46a14b192ea0133b636cbf0fa8733239783585bc3",
        "partitions/p00013.npz":
            "4feac14c4ff7a3ac9d372e9a350de358e3ae3a4f870721dc994b0f86a9fcf357",
        "partitions/p00014.npz":
            "751c1261dacc8ddcf709c035f8b74b0f2625ba4a6de926397edaa12f6abf6d85",
        "partitions/p00015.npz":
            "d8663cf337d25769df4352cf5e91f82777cf54273870caa3386234f6e966a291",
        "partitions/p00016.npz":
            "34d6dbe5de1ce6915978614ad46bf29e30009ea9b9ccd80ad8f6f6e9f6eb66a2",
        "partitions/p00017.npz":
            "f8de0e25bc8e4602f33155eefa7da6eee4a23da8ee2bb74ced9b62ecbb4f58c0",
        "partitions/p00018.npz":
            "b079091c6f87511a4cfe44b815534e434f84eaa93339eb537004268293fc2902",
        "partitions/p00019.npz":
            "975ce810dde531fd4885c4bd22506fa2e4bf8c894af96f7b2f96ea927d94e33c",
        "partitions/p00020.npz":
            "373ebe1b4cb107c75be07ae9be0161fe009884b67b43c851d3dd8c7538f311f1",
        "partitions/p00021.npz":
            "a2789c501f1f88b59ee29669b28e9026bcc6beaf4c4e7fa818ab715a5a317785",
        "partitions/p00022.npz":
            "eabfe1791d00c7146850a19cff98976ecec018827c720ffb83402877a33e55fe",
        "partitions/p00023.npz":
            "7128bb71b35d709f4fa83a888797af7f3a992520a27650d7526c0a9d825beb03",
        "partitions/p00024.npz":
            "ec2a90b1e9130354e0b047cf95afe23dff668f528d171e8bdb38dc768ec3e051",
        "partitions/p00025.npz":
            "47b756a1a448105b68e72a470dffc7eabd0b414e63cd4b0d889a7d5e6cb6e89e",
        "partitions/p00026.npz":
            "6f2e3906b409e1fe26d39bebcd9bb510fcb212c1f83961b43298ce3c00935814",
        "partitions/p00027.npz":
            "164b4ade29c63885a904262bd29f5e564928c65ad48cff08581b0fc11790df5c",
        "partitions/p00028.npz":
            "ed1b7073f86a30183c8d30bfe75563f960e285802fd57ae703f931d43c1597b9",
        "partitions/p00029.npz":
            "fe2d2a3dcdc4c6d77c89d6f2934f18a806b47ae1387bce2414e07e512ae24432",
        "partitions/p00030.npz":
            "75ecd798237cb318daa6e8570f076537a83f3b67b003293a5989bf3a647a0e75",
        "partitions/p00031.npz":
            "6ae93960e2ca1ff0b112e74296df46460ad9df3970e60bdaeb2969db345de28a",
        "partitions/p00032.npz":
            "101904bd39f8ba6011a534f6ecb4dd1816b591cce9daa4f49b921746c2b0366a",
        "partitions/p00033.npz":
            "61df14b02547b519343b608b9f51cddca151906624c616e4887bf6800bef2c65",
    },
    108: {
        "global_index.json":
            "6f01f641d9fe524cb6e9a2fd56af8afe8efaeb2e13b7747b9b1562d6e8965552",
        "meta.json":
            "a5f54c255877b0ea73ae9641ff4e414e37ba360480704b736ab77fcbca2a7768",
        "partitions/p00000.npz":
            "dc3f3be0d8600d94215d0059e65d9e1a3f39e80facfb056625e3d337878f8436",
        "partitions/p00001.npz":
            "af1d1c4505291bcccb343e562ff5cf29fed8abff01bbd596e4f9d8033a50f088",
        "partitions/p00002.npz":
            "86cf9e11d0f12f3199cca271c4b8652d9ec8361498c41af4c515d9e0841ef669",
        "partitions/p00003.npz":
            "9db61d50cd245bc7dae05f934597fe5b90776616cf723af5569ea8c081619dc1",
        "partitions/p00004.npz":
            "ee4cc8163b165161158066944cfc34a37e88f3384b30d85d8002de9bb797ee48",
        "partitions/p00005.npz":
            "b7dba0b2521d0586d330d51d8a7ca4ab6263b545a891c3038336d75268c31525",
        "partitions/p00006.npz":
            "971c4f0ca5b9e8cba498476d1134d9891ad4e2f621edf1245a605e479f2489ef",
        "partitions/p00007.npz":
            "2e5e2f0eb6baf3eb31532c0d625ae4f9e9fe17da4e7ed0b013e98676e6e81455",
        "partitions/p00008.npz":
            "6f69d02a52a93358384f9505970935f9a36ae94b8a09758f76276dea4314d290",
        "partitions/p00009.npz":
            "c378ddf2830566fa928c072614800a7ec31a69699e01e250cef95448d65a5866",
        "partitions/p00010.npz":
            "d39735aad6a6df794e5e6e7362d83028bdb0ceef3f236622f30aec5db69965ca",
        "partitions/p00011.npz":
            "06a2b86964b8c975022731c1a30e86c3bd8c0a26aaf610eed411ab34d84bde96",
        "partitions/p00012.npz":
            "3e07d8cbab754dbb49c69112d690d46c2f8b6d14604f13ccc77fa434a3b19f29",
        "partitions/p00013.npz":
            "c41886e5da1334517c2cf41fcc628aabf47f9b7697950a08863d88d572034069",
        "partitions/p00014.npz":
            "3aac2bf9f8a07486fbe096ae40181f6eed651a5d5b19edb3866ae6d229040842",
        "partitions/p00015.npz":
            "99be35bf4d611d3f1a0868eb91deb9489135918353e5f96f636a89a74b68fd09",
        "partitions/p00016.npz":
            "1d8f29386316c4a06082f63fb59a767fbb4d977191d04a760925794ea2d57aaa",
        "partitions/p00017.npz":
            "07378af9ec3bfa81194d6850530d37b62f9d36520aba44b433adcfee8ea06f95",
        "partitions/p00018.npz":
            "7fcdea4a5bc8f0f21ecf8e4d644fb0375e57fefeb91707a9aa50e19edc8b41ac",
        "partitions/p00019.npz":
            "29be5f805c85d4e51b945150a38d9d06c85c6381c0d8a31b8b5c1d807aa9b743",
        "partitions/p00020.npz":
            "fe4033c353340cb7fc03a3e35fea36168387873c6a8e26b035fb429ba0f3316f",
        "partitions/p00021.npz":
            "6f7b62a125e6c31a03fa80371e7ddea231dd0f799beb5a0edfef843f0c582324",
        "partitions/p00022.npz":
            "ac2f2dff4f81005bcd80b345bfc5872188b84f9e36e8e380bd0a68d6dedfdb7c",
        "partitions/p00023.npz":
            "a895c1488972a2bc0f90d3a646d1c7dd56d29395544925c3cdf7bfc0a008e6c3",
        "partitions/p00024.npz":
            "426896babf00e3d59065b29a5010e3c2183fefd97d084c90ce870746f50467ab",
        "partitions/p00025.npz":
            "78d8f79bb7f53660ba05ca84b0dfa928b759ce29ae2117e64da7c8a44aa48f70",
        "partitions/p00026.npz":
            "eba1045e0325e1588938fb9f0bd7246ecf59bc297eec6b58607fa63fbaf3e269",
        "partitions/p00027.npz":
            "8c4fb8dd1c19c879fbb8de3a4674608161fe8d05b32cfae1e6865f05a576eda7",
        "partitions/p00028.npz":
            "61aa62b26e998b0cbe2889b0bbd912504209fee2dc650f0c39d50cf55b02e590",
        "partitions/p00029.npz":
            "d267483bf5535330350d6d4efcefa0688b044217be801bfb678516f741e7c46d",
        "partitions/p00030.npz":
            "97e3349c2aa103bbe222e2fe2a084fbc58fcb9b8163355cd74094d06e0f9f808",
        "partitions/p00031.npz":
            "5a12e21e556af033f6ba4964ee5040061a31da677d96489f45586e0d4c4817b5",
        "partitions/p00032.npz":
            "d0ab3d8d8850474752b026cb50a35d39309fb55a38741c74a3b0c18eb023c442",
        "partitions/p00033.npz":
            "c01f9e798ea54fc22a5475952bcd5bc07b70d04986ff18993c9c0ff917c0c71e",
    },
}

#: (label, tasks, network_s, io_s), in execution order.
LEDGER = {
    97: [
        ("global/sample+convert", 6, 0.0, 0.0008265177408854167),
        ("global/aggregate/combine", 3, 0.0, 0.0),
        ("global/aggregate/shuffle", 3, 2.3651123046874996e-06, 0.0),
        ("global/aggregate/merge", 3, 0.0, 0.0),
        ("global/aggregate", 3, 5.7220458984375e-06, 0.0),
        ("global/node statistic", 1, 0.0, 0.0),
        ("global/build index tree", 1, 0.0, 0.0),
        ("global/partition assignment", 1, 0.0, 0.0),
        ("local/read data", 30, 0.0, 0.008265177408854163),
        ("local/convert data", 30, 0.0, 0.0),
        ("local/broadcast Tardis-G", 1, 5.340576171875e-08, 0.0),
        ("local/shuffle", 30, 0.0007752380371093751, 0.0),
        ("local/build index", 34, 0.0, 0.0),
        ("local/dump bloom index", 0, 0.0, 2.872149149576823e-05),
    ],
    108: [
        ("global/sample+convert", 6, 0.0, 0.0008265177408854167),
        ("global/aggregate/combine", 3, 0.0, 0.0),
        ("global/aggregate/shuffle", 3, 2.613067626953125e-06, 0.0),
        ("global/aggregate/merge", 3, 0.0, 0.0),
        ("global/aggregate", 3, 5.7220458984375e-06, 0.0),
        ("global/node statistic", 1, 0.0, 0.0),
        ("global/build index tree", 1, 0.0, 0.0),
        ("global/partition assignment", 1, 0.0, 0.0),
        ("local/read data", 30, 0.0, 0.008265177408854163),
        ("local/convert data", 30, 0.0, 0.0),
        ("local/broadcast Tardis-G", 1, 5.340576171875e-08, 0.0),
        ("local/shuffle", 30, 0.0007524070739746094, 0.0),
        ("local/build index", 34, 0.0, 0.0),
        ("local/dump bloom index", 0, 0.0, 2.869764963785807e-05),
    ],
}


def build(seed: int):
    dataset = random_walk(3000, length=64, seed=seed).z_normalized()
    cluster = SimCluster(n_workers=CONFIG.n_workers)
    return build_tardis_index(dataset, CONFIG, cluster=cluster)


def file_digests(root) -> dict:
    return {
        str(path.relative_to(root)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def ledger_rows(ledger) -> list:
    return [
        (label, stats.tasks, stats.network_s, stats.io_s)
        for label, stats in ledger.stages.items()
    ]


@pytest.mark.parametrize("seed", [97, 108])
def test_saved_files_and_ledger_are_pinned(seed, tmp_path):
    index = build(seed)
    save_index(index, tmp_path)
    assert file_digests(tmp_path) == FILES_SHA256[seed]
    assert ledger_rows(index.construction_ledger) == LEDGER[seed]
