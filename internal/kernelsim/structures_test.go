package kernelsim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// mapleLookup walks a built maple tree the way mas_walk does: descend
// choosing the slot whose pivot covers the index.
func mapleLookup(k *Kernel, mt Obj, index uint64) uint64 {
	root := mt.Get("ma_root")
	if root == 0 {
		return 0
	}
	if !XaIsNode(root) {
		return root // single direct entry covering everything
	}
	enode := root
	for depth := 0; depth < 16; depth++ {
		node := MtToNode(enode)
		var pivotBase, slotBase uint64
		var nslots uint64
		leaf := MtNodeType(enode) == MapleLeaf64
		obj := k.At("maple_node", node)
		if leaf {
			pivotBase = obj.FieldAddr("mr64.pivot")
			slotBase = obj.FieldAddr("mr64.slot")
			nslots = MapleR64Slots
		} else {
			pivotBase = obj.FieldAddr("ma64.pivot")
			slotBase = obj.FieldAddr("ma64.slot")
			nslots = MapleA64Slots
		}
		slot := nslots - 1
		for i := uint64(0); i < nslots-1; i++ {
			pivot, _ := k.Mem.ReadU64(pivotBase + i*8)
			if pivot == 0 && i > 0 {
				// unused tail slots: the last written pivot wins
				slot = i
				break
			}
			if index <= pivot {
				slot = i
				break
			}
		}
		entry, _ := k.Mem.ReadU64(slotBase + slot*8)
		if leaf {
			return entry
		}
		if entry == 0 || !XaIsNode(entry) {
			return entry
		}
		enode = entry
	}
	return 0
}

// TestMapleLookupProperty: for random non-overlapping interval sets, every
// in-range index finds its pointer and every gap index finds NULL.
func TestMapleLookupProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%40) + 1
		k := &Kernel{Builder: NewBuilder(), immapNodes: map[uint64][]uint64{}}
		var entries []MapleEntry
		cursor := uint64(0x1000)
		for i := 0; i < count; i++ {
			cursor += uint64(rng.Intn(8)+1) * 0x1000 // gap
			size := uint64(rng.Intn(4)+1) * 0x1000
			entries = append(entries, MapleEntry{
				First: cursor,
				Last:  cursor + size - 1,
				Ptr:   0xffff_8880_0100_0000 + uint64(i)*0x100,
			})
			cursor += size
		}
		mt := k.Alloc("maple_tree")
		k.BuildMapleTree(mt, entries)
		for _, e := range entries {
			for _, idx := range []uint64{e.First, e.Last, (e.First + e.Last) / 2} {
				if got := mapleLookup(k, mt, idx); got != e.Ptr {
					t.Logf("seed=%d lookup(%#x) = %#x, want %#x", seed, idx, got, e.Ptr)
					return false
				}
			}
		}
		// Gap probes.
		if got := mapleLookup(k, mt, 0); got != 0 {
			t.Logf("seed=%d gap lookup(0) = %#x", seed, got)
			return false
		}
		for i := 1; i < len(entries); i++ {
			gapLo := entries[i-1].Last + 1
			gapHi := entries[i].First - 1
			if gapLo > gapHi {
				continue
			}
			if got := mapleLookup(k, mt, gapLo); got != 0 {
				t.Logf("seed=%d gap lookup(%#x) = %#x", seed, gapLo, got)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestMapleAlignmentAndTags: every node is 256-aligned and correctly
// tagged; leaves are leaves.
func TestMapleAlignmentAndTags(t *testing.T) {
	k := Build(Options{})
	task := k.ByPID[100]
	mm := k.At("mm_struct", task.Get("mm"))
	root := mm.Field("mm_mt").Get("ma_root")
	var walk func(enode uint64, depth int)
	walk = func(enode uint64, depth int) {
		if depth > 8 {
			t.Fatal("tree too deep")
		}
		node := MtToNode(enode)
		if node%mapleNodeAlign != 0 {
			t.Errorf("node %#x misaligned", node)
		}
		typ := MtNodeType(enode)
		if typ != MapleLeaf64 && typ != MapleArange64 {
			t.Errorf("unexpected node type %d", typ)
		}
		if typ != MapleArange64 {
			return
		}
		obj := k.At("maple_node", node)
		for s := uint64(0); s < MapleA64Slots; s++ {
			entry, _ := k.Mem.ReadU64(obj.FieldAddr("ma64.slot") + s*8)
			if entry == 0 {
				continue
			}
			if !XaIsNode(entry) {
				t.Errorf("internal slot %d holds non-node %#x", s, entry)
				continue
			}
			walk(entry, depth+1)
		}
	}
	if !XaIsNode(root) {
		t.Fatalf("root %#x not a node", root)
	}
	walk(root, 0)
}

// TestXArrayRoundtrip: random index->value maps store and load exactly.
func TestXArrayRoundtrip(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := &Kernel{Builder: NewBuilder(), immapNodes: map[uint64][]uint64{}}
		items := make(map[uint64]uint64)
		for i := 0; i < int(n%64)+1; i++ {
			idx := uint64(rng.Intn(5000))
			items[idx] = 0xffff_8880_0200_0000 + idx*0x40
		}
		xa := k.Alloc("xarray")
		k.BuildXArray(xa, items)
		// Walk the way xa_load does: an index beyond the root node's
		// range is absent, then descend by index bits.
		lookup := func(idx uint64) uint64 {
			entry := xa.Get("xa_head")
			if entry == 0 {
				return 0
			}
			if entry&3 != 2 {
				if idx == 0 {
					return entry
				}
				return 0
			}
			if idx>>k.At("xa_node", XaToNode(entry)).Get("shift") > XAChunkSize-1 {
				return 0
			}
			for {
				node := k.At("xa_node", XaToNode(entry))
				shift := node.Get("shift")
				slot := (idx >> shift) & (XAChunkSize - 1)
				e, _ := k.Mem.ReadU64(node.FieldAddr("slots") + slot*8)
				if e == 0 {
					return 0
				}
				if shift == 0 {
					return e
				}
				if e&3 != 2 {
					return e
				}
				entry = e
			}
		}
		for idx, want := range items {
			if got := lookup(idx); got != want {
				t.Logf("seed=%d xa[%d] = %#x, want %#x", seed, idx, got, want)
				return false
			}
		}
		// A few absent probes.
		for i := 0; i < 5; i++ {
			idx := uint64(rng.Intn(5000))
			if _, ok := items[idx]; ok {
				continue
			}
			if got := lookup(idx); got != 0 {
				t.Logf("seed=%d absent xa[%d] = %#x", seed, idx, got)
				return false
			}
		}
		return true
	}
	// One entry at index 15 under a shift-0 root, probed at 3471: an
	// absent index that lands in slot 15 unless the root range is checked.
	if !prop(7805205594009706129, 0xc0) {
		t.Fatal("regression input seed=7805205594009706129 n=0xc0 failed")
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestXaValueTagging(t *testing.T) {
	if !XaIsValue(XaMkValue(42)) || XaToValue(XaMkValue(42)) != 42 {
		t.Error("value tagging broken")
	}
	if XaIsNode(XaMkValue(42)) {
		t.Error("value entry mistaken for node")
	}
	n := uint64(0xffff888000001000)
	if !XaIsNode(XaMkInternal(n)) || XaToNode(XaMkInternal(n)) != n {
		t.Error("internal tagging broken")
	}
}

// TestRBTreeInvariants: the builder produces valid red-black trees —
// in-order traversal matches input order, no red node has a red child, and
// all root-to-null paths have equal black height.
func TestRBTreeInvariants(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		count := int(n%60) + 1
		k := &Kernel{Builder: NewBuilder(), immapNodes: map[uint64][]uint64{}}
		nodes := make([]uint64, count)
		for i := range nodes {
			nodes[i] = k.AllocRaw(24, 8)
		}
		_ = rng
		rootCell := k.AllocRaw(16, 8)
		k.BuildRBTree(rootCell, nodes, true)
		root, _ := k.Mem.ReadU64(rootCell)
		leftmost, _ := k.Mem.ReadU64(rootCell + 8)
		if count > 0 && leftmost != nodes[0] {
			t.Logf("leftmost %#x != first %#x", leftmost, nodes[0])
			return false
		}

		// In-order traversal must yield the input sequence.
		var inorder []uint64
		var walk func(addr uint64)
		walk = func(addr uint64) {
			if addr == 0 {
				return
			}
			right, _ := k.Mem.ReadU64(addr + 8)
			left, _ := k.Mem.ReadU64(addr + 16)
			walk(left)
			inorder = append(inorder, addr)
			walk(right)
		}
		walk(root)
		if len(inorder) != count {
			return false
		}
		for i := range inorder {
			if inorder[i] != nodes[i] {
				return false
			}
		}

		// Red-black invariants.
		isRed := func(addr uint64) bool {
			if addr == 0 {
				return false
			}
			pc, _ := k.Mem.ReadU64(addr)
			return pc&1 == 0
		}
		ok := true
		var bh func(addr uint64) int
		bh = func(addr uint64) int {
			if addr == 0 {
				return 1
			}
			right, _ := k.Mem.ReadU64(addr + 8)
			left, _ := k.Mem.ReadU64(addr + 16)
			if isRed(addr) && (isRed(left) || isRed(right)) {
				ok = false
			}
			lb, rb := bh(left), bh(right)
			if lb != rb {
				ok = false
			}
			b := lb
			if !isRed(addr) {
				b++
			}
			return b
		}
		bh(root)
		// Root must be black.
		if isRed(root) {
			ok = false
		}
		// Parent pointers consistent.
		var checkParent func(addr, parent uint64)
		checkParent = func(addr, parent uint64) {
			if addr == 0 {
				return
			}
			pc, _ := k.Mem.ReadU64(addr)
			if pc&^uint64(3) != parent {
				ok = false
			}
			right, _ := k.Mem.ReadU64(addr + 8)
			left, _ := k.Mem.ReadU64(addr + 16)
			checkParent(left, addr)
			checkParent(right, addr)
		}
		checkParent(root, 0)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestListInvariants: builder lists are valid circular doubly-linked lists.
func TestListInvariants(t *testing.T) {
	k := &Kernel{Builder: NewBuilder(), immapNodes: map[uint64][]uint64{}}
	head := k.AllocRaw(16, 8)
	k.InitList(head)
	var nodes []uint64
	for i := 0; i < 10; i++ {
		n := k.AllocRaw(16, 8)
		k.ListAddTail(head, n)
		nodes = append(nodes, n)
	}
	// forward walk
	cur, _ := k.Mem.ReadU64(head)
	for i := 0; i < 10; i++ {
		if cur != nodes[i] {
			t.Fatalf("forward order broken at %d", i)
		}
		// next.prev == cur
		next, _ := k.Mem.ReadU64(cur)
		prev, _ := k.Mem.ReadU64(next + 8)
		if prev != cur {
			t.Fatalf("prev link broken at %d", i)
		}
		cur = next
	}
	if cur != head {
		t.Fatal("list not circular")
	}
	// deletion
	k.ListDel(nodes[4])
	n3next, _ := k.Mem.ReadU64(nodes[3])
	if n3next != nodes[5] {
		t.Error("ListDel did not relink")
	}
	poison, _ := k.Mem.ReadU64(nodes[4])
	if poison>>32 != 0xdead0000 {
		t.Errorf("no poison: %#x", poison)
	}
}

// TestWorkloadScalesDeterministically: same options build identical states.
func TestWorkloadDeterminism(t *testing.T) {
	k1 := Build(Options{Processes: 3})
	k2 := Build(Options{Processes: 3})
	if len(k1.Tasks) != len(k2.Tasks) {
		t.Fatalf("task counts differ: %d vs %d", len(k1.Tasks), len(k2.Tasks))
	}
	for i := range k1.Tasks {
		if k1.Tasks[i].Addr != k2.Tasks[i].Addr {
			t.Fatalf("task %d at different address", i)
		}
		if k1.Tasks[i].Get("pid") != k2.Tasks[i].Get("pid") {
			t.Fatalf("task %d pid differs", i)
		}
	}
	p1, b1 := k1.Mem.Footprint()
	p2, b2 := k2.Mem.Footprint()
	if p1 != p2 || b1 != b2 {
		t.Errorf("footprints differ: %d/%d vs %d/%d", p1, b1, p2, b2)
	}
}

func TestOptionsScaling(t *testing.T) {
	small := Build(Options{Processes: 2, ThreadsPerProc: 1})
	big := Build(Options{Processes: 10, ThreadsPerProc: 3})
	if len(big.Tasks) <= len(small.Tasks) {
		t.Errorf("scaling broken: %d vs %d tasks", len(big.Tasks), len(small.Tasks))
	}
	sortedPids := func(k *Kernel) []int {
		var out []int
		for pid := range k.ByPID {
			out = append(out, pid)
		}
		sort.Ints(out)
		return out
	}
	if got := sortedPids(big); got[len(got)-1] < 120 {
		t.Errorf("pids = %v", got)
	}
}
