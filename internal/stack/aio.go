package stack

import (
	"rootreplay/internal/sim"
	"rootreplay/internal/trace"
	"rootreplay/internal/vfs"
)

// AioRead submits an asynchronous read of size bytes at off on fd and
// returns the identifier of the new AIO control block. The I/O proceeds
// in a background kernel thread; aio_error / aio_return / aio_suspend
// observe and reap it, mirroring the POSIX AIO lifecycle ARTC's
// aio_stage ordering rule governs (§4.2).
func (s *System) AioRead(t *sim.Thread, fd, size, off int64) (int64, vfs.Errno) {
	return s.aioSubmit(t, OpAioRead, fd, size, off)
}

// AioWrite submits an asynchronous write.
func (s *System) AioWrite(t *sim.Thread, fd, size, off int64) (int64, vfs.Errno) {
	return s.aioSubmit(t, OpAioWrite, fd, size, off)
}

func (s *System) aioSubmit(t *sim.Thread, op Op, fd, size, off int64) (int64, vfs.Errno) {
	enter := s.enter(t, op)
	rec := &trace.Record{FD: fd, Size: size, Offset: off}
	f, err := s.fd(fd)
	if err != vfs.OK {
		return s.record(t, enter, rec, -1, err)
	}
	s.nextAIO++
	st := &aioState{id: s.nextAIO, fd: fd, cond: sim.NewCond(s.K)}
	s.aiocbs[st.id] = st
	rec.AIO = st.id
	write := op == OpAioWrite
	f.refs++ // the I/O outlives this call, and maybe the descriptor
	s.K.Spawn("aio", func(at *sim.Thread) {
		var n int64
		if write {
			n = s.writeCommon(at, f, off, size)
		} else {
			n = s.readCommon(at, f, off, size)
		}
		s.releaseDesc(f)
		st.done = true
		st.ret = n
		st.cond.Broadcast()
	})
	return s.record(t, enter, rec, st.id, vfs.OK)
}

// AioError reports the status of an AIO control block: 0 when complete,
// EINPROGRESS (as a positive return value, not an error) while running.
func (s *System) AioError(t *sim.Thread, id int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpAioError)
	rec := &trace.Record{AIO: id}
	st, ok := s.aiocbs[id]
	if !ok {
		return s.record(t, enter, rec, -1, vfs.EINVAL)
	}
	if !st.done {
		return s.record(t, enter, rec, int64(115) /* EINPROGRESS */, vfs.OK)
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}

// AioReturn reaps a completed AIO control block, returning its byte
// count. Reaping an unfinished or already-reaped block is EINVAL.
func (s *System) AioReturn(t *sim.Thread, id int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpAioReturn)
	rec := &trace.Record{AIO: id}
	st, ok := s.aiocbs[id]
	if !ok || st.reaped || !st.done {
		return s.record(t, enter, rec, -1, vfs.EINVAL)
	}
	st.reaped = true
	delete(s.aiocbs, id)
	return s.record(t, enter, rec, st.ret, vfs.OK)
}

// AioSuspend blocks until the AIO control block completes.
func (s *System) AioSuspend(t *sim.Thread, id int64) (int64, vfs.Errno) {
	enter := s.enter(t, OpAioSuspend)
	rec := &trace.Record{AIO: id}
	st, ok := s.aiocbs[id]
	if !ok {
		return s.record(t, enter, rec, -1, vfs.EINVAL)
	}
	for !st.done {
		st.cond.Wait(t, "aio_suspend")
	}
	return s.record(t, enter, rec, 0, vfs.OK)
}
