package ebpf

import (
	"fmt"
)

// HelperID identifies a kernel helper callable from programs. The numeric
// values mirror the Linux UAPI (include/uapi/linux/bpf.h) for the helpers
// SPRIGHT uses.
type HelperID int64

// Supported helpers.
const (
	HelperMapLookupElem     HelperID = 1  // bpf_map_lookup_elem
	HelperMapUpdateElem     HelperID = 2  // bpf_map_update_elem
	HelperMapDeleteElem     HelperID = 3  // bpf_map_delete_elem
	HelperKtimeGetNs        HelperID = 5  // bpf_ktime_get_ns
	HelperGetSmpProcessorID HelperID = 8  // bpf_get_smp_processor_id
	HelperRedirect          HelperID = 23 // bpf_redirect (XDP/TC)
	HelperMsgRedirectMap    HelperID = 60 // bpf_msg_redirect_map (SK_MSG)
	HelperFibLookup         HelperID = 69 // bpf_fib_lookup
)

func (h HelperID) String() string {
	switch h {
	case HelperMapLookupElem:
		return "bpf_map_lookup_elem"
	case HelperMapUpdateElem:
		return "bpf_map_update_elem"
	case HelperMapDeleteElem:
		return "bpf_map_delete_elem"
	case HelperKtimeGetNs:
		return "bpf_ktime_get_ns"
	case HelperGetSmpProcessorID:
		return "bpf_get_smp_processor_id"
	case HelperRedirect:
		return "bpf_redirect"
	case HelperMsgRedirectMap:
		return "bpf_msg_redirect_map"
	case HelperFibLookup:
		return "bpf_fib_lookup"
	default:
		return fmt.Sprintf("helper(%d)", int64(h))
	}
}

func knownHelper(h HelperID) bool {
	switch h {
	case HelperMapLookupElem, HelperMapUpdateElem, HelperMapDeleteElem,
		HelperKtimeGetNs, HelperGetSmpProcessorID, HelperRedirect,
		HelperMsgRedirectMap, HelperFibLookup:
		return true
	}
	return false
}

// FibParamsSize is the byte size of the bpf_fib_lookup parameter block the
// programs build on their stack: {u32 ifindex_in, u32 daddr, u32 ifindex_out}.
const FibParamsSize = 12

// call dispatches one helper. Arguments are R1–R5; the result goes to R0.
// Per the eBPF calling convention, R1–R5 are clobbered afterwards.
func (st *execState) call(id HelperID) error {
	r1, r2, r3, r4 := st.reg[R1], st.reg[R2], st.reg[R3], st.reg[R4]
	var ret uint64

	switch id {
	case HelperMapLookupElem:
		m, err := st.mapFromHandle(r1)
		if err != nil {
			return err
		}
		key, err := st.access(r2, m.Spec().KeySize)
		if err != nil {
			return err
		}
		val, err := m.lookupRef(st.on, key)
		if err != nil {
			ret = 0 // NULL: program must null-check (the verifier analog is runtime here)
		} else {
			ret = st.mapValue(val)
		}

	case HelperMapUpdateElem:
		m, err := st.mapFromHandle(r1)
		if err != nil {
			return err
		}
		key, err := st.access(r2, m.Spec().KeySize)
		if err != nil {
			return err
		}
		val, err := st.access(r3, m.Spec().ValueSize)
		if err != nil {
			return err
		}
		if err := m.Update(key, val); err != nil {
			ret = uint64(^uint64(0)) // -1
		}

	case HelperMapDeleteElem:
		m, err := st.mapFromHandle(r1)
		if err != nil {
			return err
		}
		key, err := st.access(r2, m.Spec().KeySize)
		if err != nil {
			return err
		}
		if err := m.Delete(key); err != nil {
			ret = uint64(^uint64(0))
		}

	case HelperKtimeGetNs:
		ret = uint64(st.env.Now())

	case HelperGetSmpProcessorID:
		ret = 0

	case HelperRedirect:
		// r1 = egress ifindex, r2 = flags. Record the redirect in the
		// Result for the caller to forward the frame.
		st.res.RedirectIf = uint32(r1)
		st.res.HasIfRedir = true
		ret = uint64(XDPRedirect)

	case HelperMsgRedirectMap:
		// r1 = msg ctx, r2 = sockmap handle, r3 = key, r4 = flags.
		m, err := st.mapFromHandle(r2)
		if err != nil {
			return err
		}
		sock, err := m.LookupSock(uint32(r3))
		if err != nil {
			ret = uint64(SKDrop)
		} else {
			st.res.RedirectSock = sock
			ret = uint64(SKPass)
		}
		_ = r4

	case HelperFibLookup:
		// r1 = ctx, r2 = params pointer, r3 = params size, r4 = flags.
		if r3 < FibParamsSize {
			return fmt.Errorf("%w: fib_lookup params block of %d bytes", ErrOutOfBounds, r3)
		}
		params, err := st.access(r2, FibParamsSize)
		if err != nil {
			return err
		}
		ifIn := leU32(params[0:4])
		daddr := leU32(params[4:8])
		egress, ok := st.env.FIBLookup(daddr, ifIn)
		if ok {
			putLeU32(params[8:12], egress)
			ret = 0 // BPF_FIB_LKUP_RET_SUCCESS
		} else {
			ret = 2 // BPF_FIB_LKUP_RET_NOT_FWDED
		}

	default:
		return fmt.Errorf("ebpf: unknown helper %v", id)
	}

	st.reg[R0] = ret
	// Caller-saved registers are clobbered, as on real hardware.
	st.reg[R1], st.reg[R2], st.reg[R3], st.reg[R4], st.reg[R5] = 0, 0, 0, 0, 0
	return nil
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func putLeU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
