package sim

// SetDisableReactive switches e to the reference exact walker (no
// silent-step skipping) for the differential law tests.
func SetDisableReactive(e *CountsEngine, disable bool) { e.disableReactive = disable }

// ResealCheckpoint replaces a snapshot's payload, keeping its envelope
// header (format, version, engine kind, protocol, population), and
// recomputes the self-check hash, so a mutated payload reaches the engine
// decoders instead of being rejected by the integrity check.
func ResealCheckpoint(snapshot, payload []byte) []byte {
	d := ckptDec{buf: snapshot, off: len(ckptMagic)}
	d.u32()
	kind := d.u8()
	name := d.str()
	n := d.u64()
	return sealCheckpoint(kind, name, n, payload)
}

// CheckpointPayload returns a snapshot's engine payload (nil if the
// envelope does not parse).
func CheckpointPayload(snapshot []byte) []byte {
	d := ckptDec{buf: snapshot, off: len(ckptMagic)}
	d.u32()
	d.u8()
	d.str()
	d.u64()
	return d.bytes()
}
