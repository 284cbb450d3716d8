package magritte

import (
	"fmt"
	"math/rand"
	"time"

	"rootreplay/internal/sim"
	"rootreplay/internal/snapshot"
	"rootreplay/internal/stack"
	"rootreplay/internal/trace"
)

// GenOptions control trace generation.
type GenOptions struct {
	// Scale multiplies the spec's full event count; 0.01 generates a
	// 1%-size trace with the same structure. Zero means 0.01.
	Scale float64
	// Seed makes generation deterministic per trace.
	Seed int64
	// KeepXattrInit retains extended-attribute state in the snapshot.
	// The default (false) reproduces the iBench traces' missing xattr
	// initialization, the source of ARTC's residual Table 3 errors.
	KeepXattrInit bool
}

// Generated bundles one synthesized Magritte trace.
type Generated struct {
	Spec     Spec
	Trace    *trace.Trace
	Snapshot *snapshot.Snapshot
}

// appPaths are the file-tree locations an application program uses.
type appPaths struct {
	root   string
	db     string
	plists []string
	media  []string
	caches string
}

// Generate synthesizes one trace by running the spec's application
// program on a simulated OS X machine with tracing enabled.
func Generate(spec Spec, opts GenOptions) (*Generated, error) {
	if opts.Scale <= 0 {
		opts.Scale = 0.01
	}
	target := int(float64(spec.Events) * opts.Scale)
	if target < 200 {
		target = 200
	}
	k := sim.NewKernel()
	conf := stack.Config{
		Name:     "osx-source",
		Platform: stack.OSX,
		Profile:  stack.HFSPlus,
		Device:   stack.DeviceHDD,
		// Tracing runs are about capturing structure, not timing; noop
		// keeps generation fast.
		Scheduler: stack.SchedNoop,
	}
	sys := stack.New(k, conf)

	paths, err := setupTree(sys, spec, target)
	if err != nil {
		return nil, err
	}
	snap := snapshot.Capture(sys)
	if !opts.KeepXattrInit {
		for i := range snap.Entries {
			snap.Entries[i].Xattrs = nil
		}
	}

	tr := &trace.Trace{Platform: string(stack.OSX)}
	sys.SetTracer(tr)
	runProgram(sys, spec, paths, target, tr, opts.Seed)
	if err := k.Run(); err != nil {
		return nil, fmt.Errorf("magritte %s: %w", spec.FullName(), err)
	}
	tr.Renumber()
	return &Generated{Spec: spec, Trace: tr, Snapshot: snap}, nil
}

// setupTree builds the application's initial library.
func setupTree(sys *stack.System, spec Spec, target int) (*appPaths, error) {
	p := &appPaths{root: "/Users/bench/Library/" + spec.App}
	p.db = p.root + "/Database/library.db"
	p.caches = p.root + "/Caches"
	nMedia := target / 40
	if nMedia < 8 {
		nMedia = 8
	}
	nPlists := target / 80
	if nPlists < 6 {
		nPlists = 6
	}
	if err := sys.SetupCreate(p.db, 4<<20); err != nil {
		return nil, err
	}
	if err := sys.SetupMkdirAll(p.caches); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(len(spec.App) + target)))
	for i := 0; i < nMedia; i++ {
		path := fmt.Sprintf("%s/Media/item%04d.dat", p.root, i)
		size := int64(64<<10 + rng.Intn(2<<20))
		if err := sys.SetupCreate(path, size); err != nil {
			return nil, err
		}
		if err := sys.SetupXattr(path, "com.apple.FinderInfo", 32); err != nil {
			return nil, err
		}
		p.media = append(p.media, path)
	}
	for i := 0; i < nPlists; i++ {
		path := fmt.Sprintf("%s/Preferences/pref%03d.plist", p.root, i)
		if err := sys.SetupCreate(path, int64(512+rng.Intn(8192))); err != nil {
			return nil, err
		}
		p.plists = append(p.plists, path)
	}
	if err := sys.SetupSpecial("/dev/urandom", stack.SpecialURandom); err != nil {
		return nil, err
	}
	// On the OS X source, /dev/random is non-blocking.
	if err := sys.SetupSpecial("/dev/random", stack.SpecialURandom); err != nil {
		return nil, err
	}
	return p, nil
}

// handoffItem carries an open descriptor between threads.
type handoffItem struct {
	fd   int64
	size int64
}

// runProgram spawns the application's threads. They stop once the trace
// they are recorded into holds target events.
func runProgram(sys *stack.System, spec Spec, p *appPaths, target int, tr *trace.Trace, seed int64) {
	k := sys.K

	var dbFD int64 = -1
	dbReady := sim.NewCond(k)
	totalW := spec.WRead + spec.WWrite + spec.WFsync + spec.WStat + spec.WOpenClose +
		spec.WXattr + spec.WAttrList + spec.WCreate + spec.WRename + spec.WDelete

	var readQ, closeQ *sim.Chan[handoffItem]
	if spec.HandoffPct > 0 {
		readQ = sim.NewChan[handoffItem](k, 8)
		closeQ = sim.NewChan[handoffItem](k, 8)
	}

	// Coordinator: startup phase, then periodic library-DB commits.
	k.Spawn(spec.FullName()+"-main", func(t *sim.Thread) {
		rng := rand.New(rand.NewSource(seed))
		if spec.DevRandom {
			fd, err := sys.Open(t, "/dev/random", trace.ORdonly, 0)
			if err == 0 {
				sys.Read(t, fd, 64)
				sys.Close(t, fd)
			}
		}
		// Startup: read preference plists, stat support dirs.
		for _, pl := range p.plists {
			fd, err := sys.Open(t, pl, trace.ORdonly, 0)
			if err != 0 {
				continue
			}
			sys.Fstat(t, fd)
			sys.Read(t, fd, 4096)
			sys.Close(t, fd)
			sys.Getattrlist(t, pl, "common")
			if len(tr.Records) >= target {
				break
			}
		}
		// A few probes for files that do not exist (config discovery).
		for i := 0; i < 5; i++ {
			sys.Stat(t, fmt.Sprintf("%s/Preferences/missing%d.plist", p.root, i))
		}
		// Reads of pre-existing extended attributes: these exist during
		// tracing but (with iBench-style snapshots) not at replay init.
		for i := 0; i < spec.XattrMissing && i < len(p.media); i++ {
			sys.Getxattr(t, p.media[i], "com.apple.FinderInfo", true)
		}
		dbFD, _ = sys.Open(t, p.db, trace.ORdwr, 0)
		dbReady.Broadcast()
		// Library-DB commit loop: commit frequency follows the app's
		// write/fsync character, so read-dominated apps (Numbers,
		// Keynote) rarely touch the database.
		for len(tr.Records) < target {
			if rng.Intn(totalW) < spec.WWrite {
				sys.Pwrite(t, dbFD, int64(4096+rng.Intn(16384)), int64(rng.Intn(900))*4096)
			}
			if rng.Intn(totalW) < spec.WFsync {
				sys.Fsync(t, dbFD)
			}
			sys.Lstat(t, p.plists[rng.Intn(len(p.plists))])
			t.Sleep(500 * time.Microsecond)
		}
	})

	if spec.HandoffPct > 0 {
		// Consumer: reads from descriptors opened by workers.
		k.Spawn(spec.FullName()+"-consumer", func(t *sim.Thread) {
			for {
				item, ok := readQ.Recv(t)
				if !ok {
					closeQ.Close()
					return
				}
				n := item.size
				if n > 64<<10 {
					n = 64 << 10
				}
				sys.Pread(t, item.fd, n, 0)
				sys.Pread(t, item.fd, n, item.size/2)
				closeQ.Send(t, item)
			}
		})
		// Closer: third thread closes handed-off descriptors.
		k.Spawn(spec.FullName()+"-closer", func(t *sim.Thread) {
			for {
				item, ok := closeQ.Recv(t)
				if !ok {
					return
				}
				sys.Close(t, item.fd)
			}
		})
	}

	workersDone := sim.NewWaitGroup(k)
	workersDone.Add(spec.Workers)
	if spec.HandoffPct > 0 {
		// Close the handoff pipeline only after every producer is done,
		// so no worker can send on a closed channel.
		k.Spawn(spec.FullName()+"-finalizer", func(t *sim.Thread) {
			workersDone.Wait(t)
			readQ.Close()
		})
	}
	for w := 0; w < spec.Workers; w++ {
		w := w
		rng := rand.New(rand.NewSource(seed + int64(w)*104729 + 7))
		k.Spawn(fmt.Sprintf("%s-w%d", spec.FullName(), w), func(t *sim.Thread) {
			defer workersDone.Done()
			for dbFD == -1 {
				dbReady.Wait(t, "db open")
			}
			created := []string{}
			saveSeq := 0
			// Interactive applications re-read hot documents: a little
			// over half of media accesses revisit the previous one, so a
			// realistic fraction of I/O is cache-warm (this keeps the
			// HDD/SSD thread-time ratio in the paper's 5-20x band).
			lastMedia := ""
			lastOff := int64(0)
			for len(tr.Records) < target {
				r := rng.Intn(totalW)
				switch {
				case r < spec.WRead:
					m := p.media[rng.Intn(len(p.media))]
					revisit := lastMedia != "" && rng.Intn(100) < 55
					if revisit {
						m = lastMedia
					}
					fd, err := sys.Open(t, m, trace.ORdonly, 0)
					if err != 0 {
						break
					}
					if spec.HandoffPct > 0 && rng.Intn(100) < spec.HandoffPct {
						ino, _ := sys.FS.Resolve(nil, m)
						size := int64(64 << 10)
						if ino != nil {
							size = ino.Size
						}
						readQ.Send(t, handoffItem{fd: fd, size: size})
						break // consumer/closer finish with it
					}
					// Media access: a random-offset read (thumbnail or
					// metadata chunk) plus a short streaming run; a
					// revisit re-reads the warm offset.
					off := lastOff
					if !revisit {
						ino, _ := sys.FS.Resolve(nil, m)
						span := int64(1)
						if ino != nil && ino.Size > 65536 {
							span = ino.Size / 65536
						}
						off = rng.Int63n(span) * 65536
					}
					if spec.UseAIO && rng.Intn(3) == 0 {
						// Streaming path: overlap two async reads, poll
						// one, wait for the other, reap both.
						id1, e1 := sys.AioRead(t, fd, 64<<10, off)
						id2, e2 := sys.AioRead(t, fd, 64<<10, off+64<<10)
						if e1 == 0 {
							sys.AioError(t, id1)
							sys.AioSuspend(t, id1)
							sys.AioReturn(t, id1)
						}
						if e2 == 0 {
							sys.AioSuspend(t, id2)
							sys.AioReturn(t, id2)
						}
					} else {
						sys.Pread(t, fd, 64<<10, off)
						sys.Pread(t, fd, 64<<10, off+64<<10)
					}
					sys.Close(t, fd)
					lastMedia, lastOff = m, off
				case r < spec.WRead+spec.WWrite:
					path := fmt.Sprintf("%s/cache-%d-%d.dat", p.caches, w, rng.Intn(16))
					fd, err := sys.Open(t, path, trace.OWronly|trace.OCreat|trace.OAppend, 0o644)
					if err != 0 {
						break
					}
					sys.Write(t, fd, int64(4096+rng.Intn(32768)))
					sys.Close(t, fd)
				case r < spec.WRead+spec.WWrite+spec.WFsync:
					sys.Pwrite(t, dbFD, 4096, int64(rng.Intn(900))*4096)
					sys.Fsync(t, dbFD)
				case r < spec.WRead+spec.WWrite+spec.WFsync+spec.WStat:
					sys.Stat(t, p.media[rng.Intn(len(p.media))])
					sys.Lstat(t, p.plists[rng.Intn(len(p.plists))])
				case r < spec.WRead+spec.WWrite+spec.WFsync+spec.WStat+spec.WOpenClose:
					pl := p.plists[rng.Intn(len(p.plists))]
					fd, err := sys.Open(t, pl, trace.ORdonly, 0)
					if err == 0 {
						sys.Fstat(t, fd)
						sys.Close(t, fd)
					}
				case r < spec.WRead+spec.WWrite+spec.WFsync+spec.WStat+spec.WOpenClose+spec.WXattr:
					// Attributes created by the program itself: replay-safe.
					path := fmt.Sprintf("%s/cache-%d-attr.dat", p.caches, w)
					if fd, err := sys.Open(t, path, trace.OWronly|trace.OCreat, 0o644); err == 0 {
						sys.Close(t, fd)
					}
					sys.Setxattr(t, path, "com.apple.progress", 16, true)
					sys.Getxattr(t, path, "com.apple.progress", true)
				case r < spec.WRead+spec.WWrite+spec.WFsync+spec.WStat+spec.WOpenClose+spec.WXattr+spec.WAttrList:
					sys.Getattrlist(t, p.media[rng.Intn(len(p.media))], "common")
				case r < spec.WRead+spec.WWrite+spec.WFsync+spec.WStat+spec.WOpenClose+spec.WXattr+spec.WAttrList+spec.WCreate:
					path := fmt.Sprintf("%s/thumb-%d-%04d.png", p.caches, w, len(created))
					fd, err := sys.Open(t, path, trace.OWronly|trace.OCreat|trace.OExcl, 0o644)
					if err == 0 {
						sys.Write(t, fd, int64(2048+rng.Intn(16384)))
						sys.Close(t, fd)
						created = append(created, path)
					}
				case r < spec.WRead+spec.WWrite+spec.WFsync+spec.WStat+spec.WOpenClose+spec.WXattr+spec.WAttrList+spec.WCreate+spec.WRename:
					// Atomic-save pattern: write temp, rename over the
					// document. The document name is reused across saves,
					// exercising path name ordering across generations.
					tmp := fmt.Sprintf("%s/doc-%d.tmp", p.caches, w)
					final := fmt.Sprintf("%s/Document-%d", p.root, w)
					fd, err := sys.Open(t, tmp, trace.OWronly|trace.OCreat|trace.OTrunc, 0o644)
					if err == 0 {
						sys.Write(t, fd, 32768)
						sys.Fsync(t, fd)
						sys.Close(t, fd)
						sys.Rename(t, tmp, final)
						saveSeq++
					}
				default:
					if len(created) > 0 {
						victim := created[len(created)-1]
						created = created[:len(created)-1]
						sys.Unlink(t, victim)
					} else {
						sys.Stat(t, p.caches)
					}
				}
			}
		})
	}
}
