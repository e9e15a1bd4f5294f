"""Re-encryption under a fresh nonce — the software-update tool.

The paper requires ω to be "unique across different programs and different
program versions of an encrypted program" (§II-A).  When the provider
ships an update (or rotates the nonce of an unchanged binary, e.g. after a
key-exposure scare), the image must be decrypted along its sealed edges
and re-encrypted with the new counter values.  Only the provider can do
this — it needs k1 — which is exactly the copyright/anti-cloning property
the paper claims.

``reencrypt`` keeps everything but the keystream: same blocks, same MACs
(the MACs cover plaintext, which is unchanged), new ciphertext everywhere.
``rotate_nonce`` is the policy-aware entry point: it derives the successor
nonce from the image profile's renonce policy, and refuses on
fixed-nonce deployments (which have no update path by construction).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..crypto.ctr import EdgeKeystream
from ..crypto.keys import DeviceKeys
from ..errors import ImageError
from .encrypt import chain_edges
from .image import FrontEndMemo, SofiaImage, keystream_tag


def reencrypt(image: SofiaImage, keys: DeviceKeys,
              new_nonce: int) -> SofiaImage:
    """Produce the same program sealed under ``new_nonce``.

    Requires the transformer's block metadata (the provider keeps it with
    the build artifacts).  The result verifies under the same keys and
    runs identically; no two words of ciphertext survive unchanged
    (distinct nonces give independent keystreams).  It carries a front-end
    memo for its new nonce (the seal plane is shared with ``image``'s).
    """
    if not image.blocks:
        raise ImageError("re-encryption needs the block metadata")
    if new_nonce == image.nonce:
        raise ImageError("the new nonce must differ from the current one")
    profile = image.profile
    keys = keys.for_profile(profile)  # bound to the image profile's cipher
    memo = image.front_end_memo(keys, profile.mac_words)
    old_stream = EdgeKeystream(keys.encryption_cipher, image.nonce,
                               cache=memo.keystream_for(keys, image.nonce))
    # the MACs cover plaintext, so the seal plane carries over as is
    renonced = FrontEndMemo(keystream_tag(keys, new_nonce), {},
                            memo.seal_tag, memo.seal)
    new_stream = EdgeKeystream(keys.encryption_cipher, new_nonce,
                               cache=renonced.keystream)
    bw = image.block_words
    edges = []
    for record in image.blocks:
        if not record.entry_prev_pcs:
            raise ImageError(
                f"block 0x{record.base:08x} has no sealed entry")
        edges.extend(chain_edges(record.kind, record.base, bw,
                                 list(record.entry_prev_pcs)))
    old_keys = old_stream.keystream_many(edges)
    new_keys = new_stream.keystream_many(edges)
    words: List[int] = list(image.words)
    for number, record in enumerate(image.blocks):
        base_index = (record.base - image.code_base) // 4
        first = number * bw
        plaintext = [words[base_index + j] ^ old_keys[first + j]
                     for j in range(bw)]
        if record.kind == "mux":
            # recover the plaintext along the first sealed edge: index 1
            # (M1e2) is a copy of M1, so take it from index 0
            plaintext[1] = plaintext[0]
        for j in range(bw):
            words[base_index + j] = plaintext[j] ^ new_keys[first + j]
    return replace(image, words=words, nonce=new_nonce, front_end=renonced)


def rotate_nonce(image: SofiaImage, keys: DeviceKeys) -> SofiaImage:
    """Re-encrypt under the profile's successor nonce (the update path).

    Raises :class:`ImageError` for fixed-nonce profiles: such a
    deployment has no renonce tooling, which is precisely what removes
    its cross-epoch replay surface (and its update path) in the E17
    design-space comparison.
    """
    profile = image.profile
    if not profile.supports_renonce:
        raise ImageError(
            f"profile {profile.label} is a fixed-nonce deployment; "
            f"it has no renonce path")
    return reencrypt(image, keys, profile.next_nonce(image.nonce))
