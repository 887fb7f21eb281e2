//! Hand-written `.dza` containers for reader tests: the layouts older
//! writers produced, built from the public wire primitives.

use dz_compress::pipeline::CompressedDelta;
use dz_compress::wire;
use dz_lossless::crc::crc32;
use dz_store::sha256;

/// Writes `delta` as a version-`version` container whose tensor pages
/// are `page(raw wire bytes)`, with the manifest's `raw_len` and CRC32
/// taken from the raw bytes. Version 1 (pre-method-zoo) carries no codec
/// bytes and holds quantized layers only; version 2 is the current
/// layout. With `dz_lossless::compress` as `page` this is what the
/// writer produced before it switched to stored pages.
pub fn container_with_pages(
    delta: &CompressedDelta,
    name: &str,
    version: u16,
    page: impl Fn(&[u8]) -> Vec<u8>,
) -> Vec<u8> {
    assert!(version == 1 || version == 2, "unknown container version");
    let mut out = Vec::new();
    out.extend_from_slice(b"DZA1");
    out.extend_from_slice(&version.to_le_bytes());
    // name, kind, codec byte and raw wire bytes per tensor, in file order.
    let mut tensors: Vec<(&str, u8, u8, Vec<u8>)> = Vec::new();
    for (tname, layer) in &delta.layers {
        if version == 1 {
            assert!(layer.as_quant().is_some(), "v1 holds quant layers");
        }
        let codec = layer.codec_id().as_u8();
        tensors.push((tname, 0, codec, wire::layer_to_bytes(layer)));
    }
    for (tname, m) in &delta.rest {
        let mut raw = Vec::new();
        wire::encode_dense(m, &mut raw);
        tensors.push((tname, 1, 0xFF, raw));
    }
    // offset, comp_len per tensor.
    let mut extents = Vec::new();
    for (_, _, _, raw) in &tensors {
        let p = page(raw);
        extents.push((out.len() as u64, p.len() as u64));
        out.extend_from_slice(&p);
    }
    let manifest_offset = out.len() as u64;
    let mut manifest = Vec::new();
    wire::put_name(&mut manifest, name);
    manifest.extend_from_slice(&sha256(b"base").0);
    if version >= 2 {
        manifest.push(delta.codec.as_u8());
    }
    wire::encode_config(&delta.config, &mut manifest);
    wire::encode_report(&delta.report, &mut manifest);
    manifest.extend_from_slice(&(tensors.len() as u32).to_le_bytes());
    for ((tname, kind, codec, raw), (offset, comp_len)) in tensors.iter().zip(&extents) {
        wire::put_name(&mut manifest, tname);
        manifest.push(*kind);
        if version >= 2 {
            manifest.push(*codec);
        }
        manifest.extend_from_slice(&offset.to_le_bytes());
        manifest.extend_from_slice(&comp_len.to_le_bytes());
        manifest.extend_from_slice(&(raw.len() as u64).to_le_bytes());
        manifest.extend_from_slice(&crc32(raw).to_le_bytes());
    }
    out.extend_from_slice(&manifest);
    out.extend_from_slice(&manifest_offset.to_le_bytes());
    out.extend_from_slice(&(manifest.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(&manifest).to_le_bytes());
    out.extend_from_slice(b"DZAE");
    out
}
