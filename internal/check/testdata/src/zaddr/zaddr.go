// Package zaddr is a fixture stub mirroring the real
// bulkpreload/internal/zaddr surface rawaddr's rule
// recognizes (matched by package-path last element, so this stub
// behaves exactly like the real package). The rule skips the package
// body itself.
package zaddr

// Addr is a 64-bit instruction address.
type Addr uint64

// RowBase returns the lowest address of the 32-byte row containing a.
func RowBase(a Addr) Addr { return a &^ 31 }
