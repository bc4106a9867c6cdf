package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// lockedNetPackages are the packages where holding a mutex across the
// wire is an availability bug: one slow or stalled peer wedges every
// session behind the lock.
var lockedNetPackages = []string{
	"internal/serve",
	"internal/protocol",
	"internal/fabric",
}

// blockingIONames are method names that (on a connection- or
// transport-like receiver) can block indefinitely on the peer. The
// list deliberately excludes cheap control methods such as Interrupt
// and SetDeadline, which exist precisely to be safe under a lock.
var blockingIONames = map[string]bool{
	"Send":     true,
	"Recv":     true,
	"Read":     true,
	"Write":    true,
	"ReadFull": true,
	"ReadFrom": true,
	"WriteTo":  true,
	"Flush":    true,
	"Accept":   true,
	"Dial":     true,
}

// LockedNet flags code in internal/serve, internal/fabric and
// internal/protocol that performs blocking I/O — a protocol Send/Recv,
// a net read/write, or a channel operation — while a sync.Mutex/RWMutex
// is held. Tracking is linear per function: a lock is "held" from
// mu.Lock() until mu.Unlock() in source order, and a `defer mu.Unlock()`
// marks the lock held for the rest of the body.
var LockedNet = &Analyzer{
	Name: "lockednet",
	Doc:  "flags blocking network I/O or channel ops performed while a mutex is held",
	Run:  runLockedNet,
}

func runLockedNet(pass *Pass) error {
	applies := false
	for _, suffix := range lockedNetPackages {
		if pkgPathHasSuffix(pass.Pkg.Path(), suffix) {
			applies = true
			break
		}
	}
	if !applies {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkLockedIO(pass, fd.Body)
			return false
		})
	}
	return nil
}

func checkLockedIO(pass *Pass, body *ast.BlockStmt) {
	info := pass.TypesInfo
	// held maps the textual form of the mutex expression ("s.mu",
	// "st.mu") to whether its lock is currently held on the linear walk.
	held := map[string]bool{}
	heldAny := func() (string, bool) {
		for k, v := range held {
			if v {
				return k, true
			}
		}
		return "", false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// A closure body runs later, under whatever locks hold at its
			// call site; analyze it as its own function.
			checkLockedIO(pass, n.Body)
			return false

		case *ast.DeferStmt:
			if recv, name, ok := mutexMethod(info, n.Call); ok && (name == "Unlock" || name == "RUnlock") {
				// Deferred unlock: the lock stays held for the rest of
				// the body, so leave `held` as-is and skip the call.
				_ = recv
				return false
			}

		case *ast.SendStmt:
			if mu, locked := heldAny(); locked {
				pass.Reportf(n.Pos(), "channel send while %s is locked; the peer can block this lock indefinitely", mu)
			}

		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if mu, locked := heldAny(); locked {
					pass.Reportf(n.Pos(), "channel receive while %s is locked; the peer can block this lock indefinitely", mu)
				}
			}

		case *ast.CallExpr:
			if recv, name, ok := mutexMethod(info, n); ok {
				switch name {
				case "Lock", "RLock":
					held[recv] = true
				case "Unlock", "RUnlock":
					held[recv] = false
				}
				return true
			}
			if isBlockingIO(info, n) {
				if mu, locked := heldAny(); locked {
					fn := calleeFunc(info, n)
					pass.Reportf(n.Pos(), "%s called while %s is locked; a stalled peer wedges every goroutine behind the lock", fn.Name(), mu)
				}
			}
		}
		return true
	})
}

// mutexMethod reports whether call is a method call on a sync.Mutex or
// sync.RWMutex (directly or embedded), returning the textual receiver.
func mutexMethod(info *types.Info, call *ast.CallExpr) (recv, name string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", "", false
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return types.ExprString(ast.Unparen(sel.X)), fn.Name(), true
	}
	return "", "", false
}

// isBlockingIO reports whether call is a blocking wire operation: a
// method from the blocking set on a transport/conn/listener-ish
// receiver, or an io/net package function that reads or writes.
func isBlockingIO(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil || !blockingIONames[fn.Name()] {
		return false
	}
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "io", "net", "bufio":
		return true
	}
	// Method on a protocol transport or a net.Conn-like value.
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	rt := deref(sig.Recv().Type())
	if named, isNamed := rt.(*types.Named); isNamed {
		pkg := named.Obj().Pkg()
		if pkg != nil && (pkg.Path() == "net" || pkgPathHasSuffix(pkg.Path(), "internal/protocol")) {
			return true
		}
	}
	if types.IsInterface(rt) {
		// e.g. a net.Conn or protocol.Transport interface value.
		return true
	}
	return false
}
