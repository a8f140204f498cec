package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"sheetmusiq/internal/engine"
)

// serverProc is one running sheetserver child process.
type serverProc struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{}
	log    *os.File
}

// freeAddr returns a loopback address with a port the kernel just handed
// out, for the child to listen on.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// serverProcs is the GOMAXPROCS of every sheetserver a run starts. The
// kernels of one step fan out over GOMAXPROCS goroutines, so with two on a
// two-vCPU shared host a step waits for whichever vCPU the host lends last:
// with a busy loop on the other core, modify's step p50 rose 27% and its
// p95 62% at two procs, against under 1% at one. A run pinned to one CPU
// (see pinToOneCPU) gets one proc anyway; this keeps it so when taskset
// is missing.
const serverProcs = 1

// startServer runs the sheetserver binary with args and waits until its
// health check answers. Its stderr goes to logPath.
func startServer(bin, logPath string, args ...string) (*serverProc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, fmt.Errorf("pick port: %w", err)
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", serverProcs))
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start sheetserver: %w", err)
	}
	s := &serverProc{
		cmd:  cmd,
		base: "http://" + addr,
		client: &http.Client{
			Timeout:   90 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		},
		exited: make(chan struct{}),
		log:    logf,
	}
	go func() {
		_ = cmd.Wait() // the exit status of a killed child carries no information
		close(s.exited)
	}()
	deadline := time.Now().Add(120 * time.Second)
	for {
		if st, _, err := s.do("GET", "/v1/healthz", nil); err == nil && st == http.StatusOK {
			return s, nil
		}
		select {
		case <-s.exited:
			logf.Close()
			return nil, fmt.Errorf("sheetserver exited during start-up (see %s)", logPath)
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.kill()
			return nil, errors.New("sheetserver did not become healthy within 120s")
		}
	}
}

// pid is the child's process ID as /proc names it.
func (s *serverProc) pid() string { return strconv.Itoa(s.cmd.Process.Pid) }

// kill sends SIGKILL and waits for the child to be gone.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Signal(syscall.SIGKILL) // fails only when already exited
	<-s.exited
	s.client.CloseIdleConnections()
	s.log.Close()
}

// do sends one request and reads the whole response body.
func (s *serverProc) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// createSession opens a session.
func (s *serverProc) createSession() (session, error) {
	st, body, err := s.do("POST", "/v1/sessions", []byte(`{}`))
	if err == nil && st != http.StatusCreated {
		err = fmt.Errorf("status %d: %s", st, body)
	}
	if err != nil {
		return session{}, fmt.Errorf("create session: %w", err)
	}
	var resp struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return session{}, fmt.Errorf("create session: %w", err)
	}
	return session{srv: s, id: resp.ID}, nil
}

// renderLimit is the row limit of every render, as a sheet view would
// show one screen.
const renderLimit = 50

// session is the client's handle on one server session.
type session struct {
	srv *serverProc
	id  string
}

// step sends one op and then renders; it returns the render body.
func (s session) step(op engine.Op) ([]byte, error) {
	body, err := json.Marshal(op)
	if err != nil {
		return nil, err
	}
	st, resp, err := s.srv.do("POST", "/v1/sessions/"+s.id+"/op", body)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("op %s: status %d: %s", body, st, resp)
	}
	return s.get(fmt.Sprintf("render?limit=%d", renderLimit))
}

// get reads one session resource and requires 200.
func (s session) get(what string) ([]byte, error) {
	st, resp, err := s.srv.do("GET", "/v1/sessions/"+s.id+"/"+what, nil)
	if err != nil {
		return nil, err
	}
	if st != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", what, st, resp)
	}
	return resp, nil
}
