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
            "2a7a54cd75486e09daf7355d1765ef7e3d05e088e85cec0a708cb5c1769cf391",
        "partitions/p00000.npz":
            "e878474793f2737cc0111b7453c36d1acc5486e9c4006c34a329bb3bc38daf3d",
        "partitions/p00001.npz":
            "688d986941f1c32ab093f88a381479fc1dee7301adf7af6d6f0e1218420e9581",
        "partitions/p00002.npz":
            "6aef4065d5b8697b0d0ef0f3060f793dc78e17288f6acf420796334bc8482005",
        "partitions/p00003.npz":
            "0d6b75ceb15f22348cc7c5fe8cd8d0e7252984fa06fa5c95484728fb5dbdcb6b",
        "partitions/p00004.npz":
            "08377b1c3e2f49698eb0604f99172eb18c41ab7760d2ba310a938d687557801f",
        "partitions/p00005.npz":
            "9d1b9734587a531fb0e06fd963bd96f5af47306c2e2f3103eec4bb9ebde98e79",
        "partitions/p00006.npz":
            "47f6d2ab9c5bbfbcea6c8444546a170b1c2832d574e69b914d036f21e9cb633d",
        "partitions/p00007.npz":
            "742eba207f306fcfee71cf3560e5996ed5f3a11d103bae331e678800bc1c140a",
        "partitions/p00008.npz":
            "16ac53f76d237733ba384fbbad57928b0e9fbf47fa6302ac6445674d07c9817f",
        "partitions/p00009.npz":
            "297899fe29a936c4053eee824d8a2da2312320d9f563c1518c1349f5a008f48a",
        "partitions/p00010.npz":
            "e3e3cba880a9837bf8c8c8c879ef254a6cc89b4c143d3eb1d61775928a145005",
        "partitions/p00011.npz":
            "b07184f01fa382670d71b8fff59e7b0440f507ebb1488fc6f34de77bdfd0a9ad",
        "partitions/p00012.npz":
            "12619e4ffbc689770ffc59d95219395920d484171065606b64b6146b81cbb8d8",
        "partitions/p00013.npz":
            "6dc5dfd9f5b39c595c8cc283626409395ab530151caebc851ec8ed250dbb8116",
        "partitions/p00014.npz":
            "7eb56e5d8a658e175b3526a094bb0701304e9908b2e19092b432fd72567ebfbc",
        "partitions/p00015.npz":
            "54d7672cbe6fc5d828074ec6a2578e6e760f0cc8ed1921e19d0b0912eb201224",
        "partitions/p00016.npz":
            "d65fe08ea39e26bd15585fe677b5bbdaa12fcbfbb97f5285f9edeadfa845f806",
        "partitions/p00017.npz":
            "1b44468bdd3dd09ce7520f1a963c9600e8f48491c312668500e4f8f5b7731c17",
        "partitions/p00018.npz":
            "5f58d80b469b73a059e3d59d935d0c2584a85c88197e88fb17ae300df340adf4",
        "partitions/p00019.npz":
            "bf1252b25f19eadadc7c44b4fe41336c307d0ce8a5a76dd55c4ef00e0b65b91c",
        "partitions/p00020.npz":
            "5116fe25035fa59000859fe460d273af6ff9984ad0a783ee9f22696d465904dc",
        "partitions/p00021.npz":
            "01e767cc0da1559a3de6599b87f0ca567847fa562443c1446f82f58620628669",
        "partitions/p00022.npz":
            "a3bf2f4228be56e41a4841dbcb595fbbfefe3bc4eac824f07e7bd475bbb9a634",
        "partitions/p00023.npz":
            "ae427d6c38a9f84124d7f736a5aa1677bf8551dee0901cde0119916d8a1dc317",
        "partitions/p00024.npz":
            "7717e579088f602232b5eb5c3ef641487359e040e781b0bf472d53737932b98a",
        "partitions/p00025.npz":
            "a99b87953de15625b8eb3c00170e7d25150e2ff61ce013b5f94b9c7935bb4e0a",
        "partitions/p00026.npz":
            "0bd87663759b278fe52e4e1507e5de87fa0b4a3fdff5b0f06038d8902212ab44",
        "partitions/p00027.npz":
            "9cdbe160f135cbc556d58d5ea64409c25c495876c22e31b9001ace660d8d35ec",
        "partitions/p00028.npz":
            "0915304eb67830dd3f4f19837436e7acf2c54c2bdc7330dddcc5becc5e77dbc4",
        "partitions/p00029.npz":
            "ebd253e518aa9309c6d34d1f3128d27917489f0aee53577a276d1cdb48696643",
        "partitions/p00030.npz":
            "14b9438916cc2e08fe72428d58fa48cd49a781b76c6a3122076b9f7b19aa145b",
        "partitions/p00031.npz":
            "fca6f9f6a802c108e04c7877541c02187d867181a732a7f624361ff0c5c4b613",
        "partitions/p00032.npz":
            "ac202681516790450546e0d601c73f950c17ed184ad75b864d006dd21a32ccaa",
        "partitions/p00033.npz":
            "91c57c6ee4daf99c9576c86d852ad36e81d9327898968e76cd78654035224fe7",
    },
    108: {
        "global_index.json":
            "6f01f641d9fe524cb6e9a2fd56af8afe8efaeb2e13b7747b9b1562d6e8965552",
        "meta.json":
            "2a7a54cd75486e09daf7355d1765ef7e3d05e088e85cec0a708cb5c1769cf391",
        "partitions/p00000.npz":
            "f2732418b39939d15e9b499ecabe695b7651ff9313a4bee7b57d012ce5c0fd4e",
        "partitions/p00001.npz":
            "8c48cad79d75f9390a8dc6dc3fbe1503a2db16e92fab38a639cbd73b8ef7a607",
        "partitions/p00002.npz":
            "881ce9bdad4586b74cf186ce47c67839a664ea708378c1a19c52cfe7fd122f4f",
        "partitions/p00003.npz":
            "257679e4a9eaf026b804c91b02f82063dcb51a8cdb40132687be4a7dfd9a1690",
        "partitions/p00004.npz":
            "8a307d14dea4b95ec92658a1c2a11cf00901210e843965da66ebf57eb091cd0a",
        "partitions/p00005.npz":
            "402a1cd7786bf1112d89500fedcf6e820f5190d62303909be7bfc3c2bf0bd484",
        "partitions/p00006.npz":
            "7fe15aba0e51c267bb9daecd8c27d374204902306a7e76964c6dbe4f142ba2ec",
        "partitions/p00007.npz":
            "55dfb4815518b5ad9ce46947779a2fc6d889e2fb022594d5b6cc3329aa881f7f",
        "partitions/p00008.npz":
            "c0021ee04070369b50a41ca03f4bea4657912a9638911ea6ca92c53aba109304",
        "partitions/p00009.npz":
            "0e5d9065ddb898ce7fcfd43deeb515d3fea72a610b7df30d561677db766fdef4",
        "partitions/p00010.npz":
            "8165afc14f60f3a6af4db50a4a49961098a4cc2d6f036f8070a636a2749c2f35",
        "partitions/p00011.npz":
            "4f3000d30ae8fdf3df56d715229119122d1d20e85277ae410b3dfb83c81ae8cb",
        "partitions/p00012.npz":
            "9eba0d780018a1036e46277232ca03cdcff7fc7a4b22b46a3dec4aab6ac9b8ef",
        "partitions/p00013.npz":
            "bc826d00840c7cf794a87c3b4f210918c8f9d2dbe8cc65073fea74f7fb53bebf",
        "partitions/p00014.npz":
            "0204d456f4964f90296899219931479e4db0afbf45e04b2a12cd6c9867ee622e",
        "partitions/p00015.npz":
            "482e7c26ff1de0f12225ca83b6c6b8c9701674816c00cc14765c5e7f8610466c",
        "partitions/p00016.npz":
            "ece0f6347e44d381c7523607698a3c4b53687456ed2db8d308016a5b6ec9bddd",
        "partitions/p00017.npz":
            "a590e5b57a46362ebead88f5564be071ee6215d869e738c1fd2fcea15f5f07f2",
        "partitions/p00018.npz":
            "8d2fa03ca8d51c4da88692e56c3667d470d0764e6e1c1035244471072b810f48",
        "partitions/p00019.npz":
            "931ce58b67bb8cb4cf6a51d531292c3fab774748744f65d7688ee7b92398a877",
        "partitions/p00020.npz":
            "a31c54ff048f7b1aa3a8fb1676bdc9f8946e9990b8fec81faf7aa879bad1c2c0",
        "partitions/p00021.npz":
            "de156c41c12ac0d7458f293776e8dbe5636c79d7c0828d728eddea9aedbf8616",
        "partitions/p00022.npz":
            "2a3c9e613da972d5a9923b8eb334f15129a2cd4d5340d2a5fb0ed1014f714b0e",
        "partitions/p00023.npz":
            "b5bdb53822f07105bdf9fa11aa9bfd28b085e684953cafb316189354462c3496",
        "partitions/p00024.npz":
            "fee1ca68976f22267c03e271cf58f7bfef9d8d3349b154d827186e90ae996b3d",
        "partitions/p00025.npz":
            "6740be359a74a6920f33f1b61956418d91a2566e4c3caf779d490d16880c8264",
        "partitions/p00026.npz":
            "06092147bee82df909347a997fdcd4fe8128631e42563b4d483b4fbd361bc4dc",
        "partitions/p00027.npz":
            "02c4465492b64b4335eb0d13e91b2d36728a4e0a5791a675d85f6f6abb9e0c77",
        "partitions/p00028.npz":
            "db89cde42229748ae368d719e2fdf9d48d0d8a02b9d443278d5c16bea98ca36e",
        "partitions/p00029.npz":
            "0cd97ea82e2165a1a3559f18c9bf64d8fe8c96e4282e7f32fd38c816aa253262",
        "partitions/p00030.npz":
            "36879af14302820d2f5537fb8b86a939e6c53b9d95379806ae51000f7510df62",
        "partitions/p00031.npz":
            "44be90d5a266c8525d106e096c2c851bc86c2fbedc3517bc4fd88ca02334a12f",
        "partitions/p00032.npz":
            "452f52f0674571657b43af7e4e1232fe280d7dfd18df75279acf7651719e08f3",
        "partitions/p00033.npz":
            "3d6d7dfadca74a8b0812fb3011a073733b83b3031ca77b48d04812bfa6451362",
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
