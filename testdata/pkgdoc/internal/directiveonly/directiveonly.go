//lint:file-ignore U1000 a directive is not documentation
package directiveonly
